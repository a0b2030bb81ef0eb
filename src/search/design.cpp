#include "lcda/search/design.h"

#include <charconv>
#include <sstream>

#include "lcda/util/rng.h"

namespace lcda::search {

std::string Design::rollout_text() const {
  std::string out;
  out.reserve(2 + rollout.size() * 10);
  char buf[16];
  out += '[';
  for (std::size_t i = 0; i < rollout.size(); ++i) {
    if (i) out += ',';
    out += '[';
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), rollout[i].channels).ptr);
    out += ',';
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), rollout[i].kernel).ptr);
    out += ']';
  }
  out += ']';
  return out;
}

std::string Design::describe() const {
  std::ostringstream os;
  os << rollout_text() << " on " << hw.describe();
  return os.str();
}

std::uint64_t Design::hash() const {
  util::IntHasher h(0xdeca1ULL);
  for (const auto& spec : rollout) {
    h.add(spec.channels);
    h.add(spec.kernel);
  }
  for (int v : {static_cast<int>(hw.device), hw.bits_per_cell, hw.adc_bits,
                hw.xbar_size, hw.col_mux, hw.weight_bits}) {
    h.add(v);
  }
  return h.value();
}

}  // namespace lcda::search

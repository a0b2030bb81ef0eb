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
  std::vector<int> key;
  key.reserve(rollout.size() * 2 + 6);
  for (const auto& spec : rollout) {
    key.push_back(spec.channels);
    key.push_back(spec.kernel);
  }
  key.push_back(static_cast<int>(hw.device));
  key.push_back(hw.bits_per_cell);
  key.push_back(hw.adc_bits);
  key.push_back(hw.xbar_size);
  key.push_back(hw.col_mux);
  key.push_back(hw.weight_bits);
  return util::hash_ints(key, 0xdeca1ULL);
}

}  // namespace lcda::search

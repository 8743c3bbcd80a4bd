#include "core/ready_deque.hpp"

namespace phish {

void ReadyDeque::grow_() {
  std::vector<Closure*> bigger(buf_.size() * 2);
  for (std::size_t i = 0; i < count_; ++i) bigger[i] = at(i);
  buf_ = std::move(bigger);
  head_ = 0;
}

}  // namespace phish

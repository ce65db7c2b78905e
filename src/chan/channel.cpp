#include "chan/channel.hpp"

namespace tcw::chan {

double ChannelUsage::utilization() const {
  const double total = total_slots();
  return total == 0.0 ? 0.0 : payload_ / total;
}

}  // namespace tcw::chan

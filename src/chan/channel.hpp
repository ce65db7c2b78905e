// The slotted multiple-access broadcast channel of the paper's Section 2.
//
// Time advances in units of the end-to-end propagation delay tau (= 1 slot).
// In each probe step every enabled station either transmits or stays silent;
// after one slot all stations observe the common outcome:
//   Idle      -- nobody transmitted
//   Success   -- exactly one station transmitted (its message goes through)
//   Collision -- two or more stations transmitted
//
// A successful transmission of a length-M message occupies the channel for
// M slots plus `success_overhead` slots for all stations to detect its end.
#pragma once

#include <cstdint>

namespace tcw::chan {

/// Running totals of how channel time was spent; the denominators of the
/// utilization figures reported by the benches.
class ChannelUsage {
 public:
  void add_idle_slot() { idle_ += 1.0; }
  void add_collision_slot() { collisions_ += 1.0; }
  void add_success(double message_length, double overhead) {
    payload_ += message_length;
    success_overhead_ += overhead;
    ++messages_;
  }

  double idle_slots() const { return idle_; }
  double collision_slots() const { return collisions_; }
  double payload_slots() const { return payload_; }
  double success_overhead_slots() const { return success_overhead_; }
  std::uint64_t messages_carried() const { return messages_; }

  double total_slots() const {
    return idle_ + collisions_ + payload_ + success_overhead_;
  }
  /// Fraction of channel time carrying payload ("useful work", the paper's
  /// Section 4.2 discussion of policy element (4)).
  double utilization() const;

 private:
  double idle_ = 0.0;
  double collisions_ = 0.0;
  double payload_ = 0.0;
  double success_overhead_ = 0.0;
  std::uint64_t messages_ = 0;
};

}  // namespace tcw::chan

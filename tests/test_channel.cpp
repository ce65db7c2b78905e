#include "chan/channel.hpp"

#include <gtest/gtest.h>

namespace {

using tcw::chan::ChannelUsage;

TEST(ChannelUsage, StartsZeroed) {
  ChannelUsage u;
  EXPECT_DOUBLE_EQ(u.total_slots(), 0.0);
  EXPECT_DOUBLE_EQ(u.utilization(), 0.0);
  EXPECT_EQ(u.messages_carried(), 0u);
}

TEST(ChannelUsage, AccumulatesByKind) {
  ChannelUsage u;
  u.add_idle_slot();
  u.add_idle_slot();
  u.add_collision_slot();
  u.add_success(25.0, 1.0);
  EXPECT_DOUBLE_EQ(u.idle_slots(), 2.0);
  EXPECT_DOUBLE_EQ(u.collision_slots(), 1.0);
  EXPECT_DOUBLE_EQ(u.payload_slots(), 25.0);
  EXPECT_DOUBLE_EQ(u.success_overhead_slots(), 1.0);
  EXPECT_EQ(u.messages_carried(), 1u);
  EXPECT_DOUBLE_EQ(u.total_slots(), 29.0);
}

TEST(ChannelUsage, UtilizationIsPayloadFraction) {
  ChannelUsage u;
  u.add_success(8.0, 2.0);
  u.add_idle_slot();
  u.add_idle_slot();
  // payload 8 of total 12.
  EXPECT_DOUBLE_EQ(u.utilization(), 8.0 / 12.0);
}

TEST(ChannelUsage, MultipleSuccesses) {
  ChannelUsage u;
  u.add_success(10.0, 1.0);
  u.add_success(10.0, 1.0);
  EXPECT_EQ(u.messages_carried(), 2u);
  EXPECT_DOUBLE_EQ(u.payload_slots(), 20.0);
}

}  // namespace

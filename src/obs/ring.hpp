// Fixed-capacity overwrite-oldest ring buffer backing each
// obs::FlightRecorder segment. Keeps the last `capacity` pushed values;
// older values are dropped, counted, and reported via dropped().
// snapshot() returns oldest-first.
//
// Header-only and dependency-free (obs is a leaf library): capacity 0 is
// clamped to 1 instead of asserting, so a misconfigured capture degrades
// to "keep the last event" rather than UB -- the tiny-capacity
// wraparound behaviour is pinned by the BoundedRing regression tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tcw::obs {

template <typename T>
class BoundedRing {
 public:
  explicit BoundedRing(std::size_t capacity)
      : ring_(capacity == 0 ? 1 : capacity) {}

  void push(const T& value) {
    ring_[head_] = value;
    head_ = (head_ + 1) % ring_.size();
    ++total_;
  }

  std::size_t capacity() const { return ring_.size(); }

  /// Values currently held (min(total, capacity)).
  std::size_t size() const {
    return total_ < ring_.size() ? static_cast<std::size_t>(total_)
                                 : ring_.size();
  }

  /// Everything ever pushed, including overwritten values.
  std::uint64_t total() const { return total_; }

  /// Pushes that overwrote an older value.
  std::uint64_t dropped() const {
    return total_ > ring_.size() ? total_ - ring_.size() : 0;
  }

  /// The held values, oldest first.
  std::vector<T> snapshot() const {
    std::vector<T> out;
    const std::size_t n = size();
    out.reserve(n);
    // When the ring has wrapped, head_ points at the oldest value;
    // before wrapping the oldest value is at index 0.
    const std::size_t start = total_ > ring_.size() ? head_ : 0;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(ring_[(start + i) % ring_.size()]);
    }
    return out;
  }

  void clear() {
    head_ = 0;
    total_ = 0;
  }

 private:
  std::vector<T> ring_;
  std::size_t head_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace tcw::obs

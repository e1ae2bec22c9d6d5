// Log-linear histogram of nanosecond durations. Values below 256 get a
// bucket each; every power-of-two range above that is split into 128
// equal sub-buckets, so no bucket is wider than 1/128 (0.8%) of the
// values it holds. Percentiles interpolate by rank inside the bucket.
// One writer per histogram; merge() after the writers have joined.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace perfbench {

class Histogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr std::uint64_t kLinear = 2 * kSub;
  // Highest power of two resolved; larger values land in the last bucket.
  static constexpr int kMaxBits = 40;
  static constexpr std::size_t kBuckets =
      kLinear + (kMaxBits - kSubBits - 1) * kSub;

  void record(std::uint64_t v) {
    ++counts_[index(v)];
    ++n_;
  }

  void merge(const Histogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
  }

  void clear() {
    counts_.fill(0);
    n_ = 0;
  }

  std::uint64_t count() const { return n_; }

  /// The value at quantile q in [0, 1]; 0 when empty.
  double quantile(double q) const {
    if (n_ == 0) return 0.0;
    const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(n_);
    double cum = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      const double c = static_cast<double>(counts_[i]);
      if (cum + c >= target) {
        const double frac = (target - cum) / c;
        return static_cast<double>(lower(i)) +
               frac * static_cast<double>(width(i));
      }
      cum += c;
    }
    return static_cast<double>(lower(kBuckets - 1));
  }

 private:
  static std::size_t index(std::uint64_t v) {
    if (v < kLinear) return static_cast<std::size_t>(v);
    const int e = std::bit_width(v) - (kSubBits + 1);  // v >> e in [128, 256)
    const std::size_t i = kLinear + static_cast<std::size_t>(e - 1) * kSub +
                          static_cast<std::size_t>((v >> e) - kSub);
    return std::min(i, kBuckets - 1);
  }
  static std::uint64_t lower(std::size_t i) {
    if (i < kLinear) return i;
    const int e = static_cast<int>((i - kLinear) / kSub) + 1;
    return (kSub + (i - kLinear) % kSub) << e;
  }
  static std::uint64_t width(std::size_t i) {
    if (i < kLinear) return 1;
    return std::uint64_t{1} << ((i - kLinear) / kSub + 1);
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t n_ = 0;
};

}  // namespace perfbench

#include "metrics/aggregate.h"

#include <cmath>
#include <map>
#include <stdexcept>

namespace wsnlink::metrics {

namespace {

/// Bucket key: floor(snr / width).
long BucketIndex(double snr_db, double width) {
  return static_cast<long>(std::floor(snr_db / width));
}

double BucketCenter(long index, double width) {
  return (static_cast<double>(index) + 0.5) * width;
}

}  // namespace

std::vector<SnrBucket> PerBySnr(std::span<const link::AttemptRecord> attempts,
                                double bucket_width_db) {
  if (bucket_width_db <= 0.0) {
    throw std::invalid_argument("PerBySnr: bucket width must be > 0");
  }
  std::map<long, SnrBucket> buckets;
  for (const auto& a : attempts) {
    const long idx = BucketIndex(a.snr_db, bucket_width_db);
    auto& bucket = buckets[idx];
    bucket.snr_center_db = BucketCenter(idx, bucket_width_db);
    ++bucket.attempts;
    if (!a.acked) ++bucket.failures;
  }
  std::vector<SnrBucket> out;
  out.reserve(buckets.size());
  for (const auto& [idx, bucket] : buckets) out.push_back(bucket);
  return out;
}

// wsnstatic:allow(unreached): test-only; only Aggregate.PayloadFilterRestricts
std::vector<SnrBucket> PerBySnrForPayload(
    std::span<const link::AttemptRecord> attempts, int payload_bytes,
    double bucket_width_db) {
  std::vector<link::AttemptRecord> filtered;
  filtered.reserve(attempts.size());
  for (const auto& a : attempts) {
    if (a.payload_bytes == payload_bytes) filtered.push_back(a);
  }
  return PerBySnr(filtered, bucket_width_db);
}

std::vector<core::fit::ScaledExpSample> PerFitSamples(
    std::span<const link::AttemptRecord> attempts, double bucket_width_db,
    std::uint64_t min_attempts_per_bucket) {
  if (bucket_width_db <= 0.0) {
    throw std::invalid_argument("PerFitSamples: bucket width must be > 0");
  }
  // Key: (payload, bucket index).
  std::map<std::pair<int, long>, SnrBucket> buckets;
  for (const auto& a : attempts) {
    const long idx = BucketIndex(a.snr_db, bucket_width_db);
    auto& bucket = buckets[{a.payload_bytes, idx}];
    bucket.snr_center_db = BucketCenter(idx, bucket_width_db);
    ++bucket.attempts;
    if (!a.acked) ++bucket.failures;
  }
  std::vector<core::fit::ScaledExpSample> samples;
  for (const auto& [key, bucket] : buckets) {
    if (bucket.attempts < min_attempts_per_bucket) continue;
    core::fit::ScaledExpSample s;
    s.payload_bytes = static_cast<double>(key.first);
    s.snr_db = bucket.snr_center_db;
    s.value = bucket.Per();
    samples.push_back(s);
  }
  return samples;
}

std::vector<core::fit::ScaledExpSample> NtriesFitSamples(
    std::span<const link::PacketRecord> packets, double bucket_width_db,
    std::uint64_t min_packets_per_bucket) {
  if (bucket_width_db <= 0.0) {
    throw std::invalid_argument("NtriesFitSamples: bucket width must be > 0");
  }
  struct Acc {
    double snr_center = 0.0;
    std::uint64_t count = 0;
    double total_tries = 0.0;
  };
  std::map<std::pair<int, long>, Acc> buckets;
  for (const auto& p : packets) {
    if (!p.acked || p.first_delivered_at == link::kNever) continue;
    const long idx = BucketIndex(p.snr_db, bucket_width_db);
    auto& acc = buckets[{p.payload_bytes, idx}];
    acc.snr_center = BucketCenter(idx, bucket_width_db);
    ++acc.count;
    acc.total_tries += static_cast<double>(p.tries);
  }
  std::vector<core::fit::ScaledExpSample> samples;
  for (const auto& [key, acc] : buckets) {
    if (acc.count < min_packets_per_bucket) continue;
    core::fit::ScaledExpSample s;
    s.payload_bytes = static_cast<double>(key.first);
    s.snr_db = acc.snr_center;
    s.value = acc.total_tries / static_cast<double>(acc.count) - 1.0;
    samples.push_back(s);
  }
  return samples;
}

}  // namespace wsnlink::metrics

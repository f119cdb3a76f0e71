#include "metrics/latency.h"

#include <algorithm>
#include <stdexcept>

#include "link/packet_log.h"
#include "util/stats.h"

namespace wsnlink::metrics {

double LatencyProfile::QuantileMs(double p) const {
  if (Empty()) throw std::logic_error("LatencyProfile::QuantileMs on empty profile");
  return util::Quantile(sorted_delays_ms, p);
}

double LatencyProfile::Ccdf(double t_ms) const {
  if (Empty()) throw std::logic_error("LatencyProfile::Ccdf on empty profile");
  return util::EmpiricalCcdf(sorted_delays_ms, t_ms);
}

double LatencyProfile::MinMs() const {
  if (Empty()) throw std::logic_error("LatencyProfile::MinMs on empty profile");
  return sorted_delays_ms.front();
}

double LatencyProfile::MaxMs() const {
  if (Empty()) throw std::logic_error("LatencyProfile::MaxMs on empty profile");
  return sorted_delays_ms.back();
}

int LatencyProfile::MaxQueueDepth() const noexcept {
  int worst = 0;
  for (const int d : queue_depths_at_arrival) worst = std::max(worst, d);
  return worst;
}

LatencyProfile CollectLatencies(const node::SimulationResult& result) {
  LatencyProfile profile;
  for (const auto& p : result.log.Packets()) {
    if (p.dropped_at_queue) continue;
    profile.queue_depths_at_arrival.push_back(p.queue_depth_at_arrival);
    if (p.first_delivered_at == link::kNever) continue;
    profile.sorted_delays_ms.push_back(
        sim::ToMilliseconds(p.first_delivered_at - p.arrived_at));
  }
  std::sort(profile.sorted_delays_ms.begin(), profile.sorted_delays_ms.end());
  return profile;
}

}  // namespace wsnlink::metrics

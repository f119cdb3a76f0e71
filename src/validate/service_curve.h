// Network-calculus service-curve model of the WSN link.
//
// The paper's follow-up work ("Service Modeling and Delay Analysis of
// Packet Delivery over a Wireless Link") models exactly this stack —
// bounded-retry CSMA over a lossy channel behind a finite FIFO — as a
// latency-rate service curve fed by a token-bucket arrival curve, and
// derives delay and backlog bounds from the pair. This module rebuilds
// that analysis from the simulator's own timing constants so the bounds
// are an *independent* oracle: nothing here runs the simulator, every
// number is closed-form in the SimulationOptions.
//
// Two kinds of guarantee come out:
//
//  * Hard bounds. Every stage of a MAC attempt has a finite worst case
//    (initial backoff <= 10.56 ms, at most 16 congestion backoffs, ACK
//    wait <= 8.192 ms, ...), so per-packet service time, queue wait and
//    first-delivery delay all have deterministic suprema. A single
//    measured delay outside [min_delay_ms, max_delay_ms] is a simulator
//    timing bug, full stop.
//
//  * Stochastic envelopes. The probability that a packet is still
//    undelivered after its k-th attempt is bounded through the paper's
//    PER model (Eq. 3) evaluated conservatively over the channel's SNR
//    fluctuation (lognormal MGF over shadowing + noise sigma, preamble
//    cliff mass, interference-burst duty, shared-medium contention).
//    Chained with the hard per-attempt timing this yields an analytic
//    delay-CCDF that must dominate the measured one.
//
// The model is deliberately conservative everywhere (upper bounds, never
// estimates): the cross-validation harness treats any measured excursion
// above an envelope as a hard failure.
#pragma once

#include <vector>

#include "node/link_simulation.h"

namespace wsnlink::validate {

/// Token-bucket arrival curve alpha(t) = burst + rate * t of the app
/// traffic spec (packets; t in seconds).
struct TokenBucketArrival {
  double rate_pps = 0.0;
  double burst_pkts = 1.0;
};

/// Latency-rate service curve beta(t) = rate * max(0, t - latency) the
/// serialised MAC guarantees (packets; latency in ms).
struct LatencyRateService {
  double latency_ms = 0.0;
  double rate_pps = 0.0;
};

/// One step of the analytic delay-CCDF envelope: for delivered packets,
/// P(delay > delay_ms) <= tail_probability.
struct CcdfStep {
  double delay_ms = 0.0;
  double tail_probability = 1.0;
};

/// Knobs of the analytic model itself.
struct ServiceCurveParams {
  /// Scales the PER model's `a` coefficient. 1.0 is the calibrated model;
  /// the negative tests mis-parameterise it (e.g. 0.5 = "PER halved") to
  /// prove the harness actually bites.
  double per_scale = 1.0;
  /// Multiplicative safety margin on every stochastic term, absorbing the
  /// residual gap between the paper's Eq. 3 fit (evaluated per radiated
  /// frame byte) and the simulator's calibrated BER curve. Calibrated so
  /// the measured/analytic attempt-loss ratio (~0.72-0.80 across the
  /// validation grid) keeps >= 1.5x headroom, while a halved PER
  /// (per_scale = 0.5) lands below the measurement on lossy links.
  double model_margin = 1.25;
};

/// Everything the service-curve analysis yields for one configuration.
struct DelayBounds {
  /// Fastest possible first delivery: SPI load + turnaround + airtime, ms.
  double min_delay_ms = 0.0;
  /// Hard supremum of arrival -> first-delivery delay over delivered
  /// packets, ms.
  double max_delay_ms = 0.0;
  /// Hard supremum of one packet's service time (SPI + all attempts), ms.
  double max_service_ms = 0.0;
  /// Hard supremum of the queue wait an accepted packet can suffer, ms.
  double max_queue_wait_ms = 0.0;
  /// Largest queue occupancy an accepted arrival can observe, packets.
  int backlog_bound_pkts = 0;
  /// Worst-case utilisation max_service / T_pkt; < 1 certifies the queue
  /// drains (the network-calculus stability condition rate >= arrival).
  double worst_case_utilization = 0.0;
  /// True when worst_case_utilization < 1 (the latency-rate service rate
  /// covers the token-bucket arrival rate even in the worst case).
  bool stable = false;

  /// The curve pair the bounds derive from.
  TokenBucketArrival arrival;
  LatencyRateService service;

  /// Analytic delay-CCDF envelope, one step per attempt; the last step
  /// has tail 0 (the hard maximum).
  std::vector<CcdfStep> ccdf;
};

/// Closed-form service-curve analysis of one simulator configuration.
///
/// `contending_nodes` is the number of identical senders sharing the
/// medium (1 = the single-link experiment). Throws std::invalid_argument
/// for option sets outside the model's scope: Poisson arrivals, mobility
/// and the synthetic interferer void the hard bounds.
class ServiceCurveModel {
 public:
  ServiceCurveModel(const node::SimulationOptions& options,
                    int contending_nodes = 1, ServiceCurveParams params = {});

  /// The full bound set (computed once, cheap to copy).
  [[nodiscard]] const DelayBounds& Bounds() const noexcept { return bounds_; }

  /// Upper bound on P(a packet's first k attempts all fail to deliver).
  /// `per_attempt_factor` inflates the per-attempt loss (2.0 adds the
  /// lost-ACK branch for try-count envelopes; 1.0 is delivery only).
  /// Non-increasing in k; accounts for attempt-to-attempt correlation via
  /// the shadowing MGF and un-exponentiated burst/contention mass.
  [[nodiscard]] double AttemptTailProbability(int k,
                                              double per_attempt_factor) const;

  /// Upper bound on the per-packet radio loss (all attempts undelivered).
  [[nodiscard]] double RadioLossBound() const;

  /// Link quality the stochastic terms are evaluated at.
  [[nodiscard]] double MeanSnrDb() const noexcept { return mean_snr_db_; }

 private:
  ServiceCurveParams params_;
  int max_tries_ = 1;
  int payload_bytes_ = 0;
  double mean_snr_db_ = 0.0;
  double snr_sigma_db_ = 0.0;
  double preamble_snr_db_ = 0.0;
  /// Probability mass of stochastic loss sources that persist across a
  /// packet's whole retry ladder (noise bursts, shared-medium contention);
  /// added once per tail, never exponentiated.
  double correlated_loss_ = 0.0;
  DelayBounds bounds_;
};

}  // namespace wsnlink::validate

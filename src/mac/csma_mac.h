// Unslotted CSMA-CA MAC with acknowledgements and bounded retransmission.
//
// Models the beaconless IEEE 802.15.4 mode of the TinyOS 2.1 CC2420 stack
// that the paper's motes ran:
//
//   SPI-load -> [initial backoff -> CCA -> turnaround -> frame airtime ->
//                ACK or ACK-wait timeout -> (retry delay)] * up to N_maxTries
//
// The two MAC-layer knobs the paper sweeps are N_maxTries (maximum number of
// transmissions per packet, 1 = no retransmission) and D_retry (delay
// inserted before each retransmission). One packet is in flight at a time;
// the queue above the MAC (link layer) feeds the next packet on completion.
#pragma once

#include <cstdint>

#include "channel/channel.h"
#include "mac/mac.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "util/rng.h"

namespace wsnlink::mac {

/// MAC-layer configuration (the paper's N_maxTries and D_retry, plus the
/// PHY power level the frame is radiated with).
struct MacParams {
  /// Maximum number of transmissions, >= 1. 1 means no retransmission.
  int max_tries = 3;
  /// Delay before each retransmission (D_retry), >= 0.
  sim::Duration retry_delay = 0;
  /// CC2420 PA_LEVEL used for every attempt.
  int pa_level = 31;
};

/// The always-on CSMA-CA sender MAC.
class CsmaMac final : public Mac {
 public:
  /// All referenced collaborators must outlive the MAC.
  CsmaMac(sim::Simulator& simulator, channel::Channel& channel,
          MacParams params, util::Rng rng);

  void Send(std::uint64_t packet_id, int payload_bytes,
            DoneCallback done) override;

  // wsnstatic:allow(unreached): test-only; Mac::Busy is a test observer
  [[nodiscard]] bool Busy() const override { return busy_; }

  void SetDeliveryCallback(DeliveryCallback cb) override {
    on_delivery_ = std::move(cb);
  }
  void SetAttemptCallback(AttemptCallback cb) override {
    on_attempt_ = std::move(cb);
  }

  void AttachTrace(const trace::TraceContext& ctx) override;

  /// Cumulative count of CCA checks that found the channel busy.
  [[nodiscard]] std::uint64_t CcaBusyCount() const noexcept override {
    return cca_busy_;
  }

 private:
  // The attempt ladder is one resumable step function over `phase_`. Each
  // call of Advance acts at an explicit time `t` (RNG draws, channel calls,
  // counters, callbacks, trace events) and says how the ladder continues.
  // Drive runs the steps. Without a shared medium this MAC is the channel's
  // only user, so it loops inline (t += delay) and schedules only the
  // completion; with a medium attached other nodes interleave channel state
  // between the steps, so every delay is a real event.
  enum class Phase : std::uint8_t {
    kSpiLoad,   ///< one-time SPI load of the frame into the TX FIFO
    kBackoff,   ///< random initial backoff of an attempt
    kCca,       ///< clear-channel assessment (with congestion backoffs)
    kTransmit,  ///< frame starts radiating
    kOutcome,   ///< frame ended: decode, ACK, observer callbacks
    kFinish,    ///< attempt over: done, or retry after D_retry
  };
  struct Step {
    enum class Kind : std::uint8_t { kNow, kAfter, kDone };
    Kind kind = Kind::kNow;
    sim::Duration delay = 0;
  };

  Step Advance(sim::Time t);
  void Drive(sim::Time t);
  void Complete();
  void EmitRadioState(sim::Time t, trace::RadioState state);

  sim::Simulator& sim_;
  channel::Channel& channel_;
  MacParams params_;
  util::Rng rng_;
  DeliveryCallback on_delivery_;
  AttemptCallback on_attempt_;

  // In-flight send state.
  bool busy_ = false;
  Phase phase_ = Phase::kSpiLoad;
  int cca_retries_left_ = 0;
  std::uint64_t packet_id_ = 0;
  int payload_bytes_ = 0;
  int frame_bytes_ = 0;
  int tries_done_ = 0;
  bool delivered_any_ = false;
  bool acked_ = false;
  sim::Time accepted_at_ = 0;
  double tx_energy_uj_ = 0.0;
  sim::Duration listen_time_ = 0;
  DoneCallback done_;

  std::uint64_t cca_busy_ = 0;

  // Observability (null = off).
  trace::Tracer* tracer_ = nullptr;
  trace::CounterRegistry* counters_ = nullptr;
  std::int32_t node_ = 0;
  trace::CounterRegistry::Id id_sends_ = 0;
  trace::CounterRegistry::Id id_tx_attempts_ = 0;
  trace::CounterRegistry::Id id_cca_busy_ = 0;
  trace::CounterRegistry::Id id_frames_decoded_ = 0;
  trace::CounterRegistry::Id id_acks_received_ = 0;
  trace::CounterRegistry::Id id_bytes_radiated_ = 0;
};

/// Maximum number of congestion backoffs per attempt before the attempt is
/// abandoned as if unacknowledged (bounds pathological interference).
inline constexpr int kMaxCcaRetries = 16;

}  // namespace wsnlink::mac

// MAC-layer interface and shared report types.
//
// Two MAC implementations live behind this interface: the always-on
// unslotted CSMA-CA of the paper's experiments (csma_mac.h) and a
// duty-cycled low-power-listening MAC (lpl_mac.h) covering the paper's
// future-work factor "MAC parameters related to periodic wake-ups". The
// link layer and simulation runner only see this interface.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/time.h"
#include "trace/trace.h"

namespace wsnlink::mac {

/// What happened to one send request, reported via the done callback.
struct SendResult {
  std::uint64_t packet_id = 0;
  /// True if the sender received an ACK (link-layer success).
  bool acked = false;
  /// True if the receiver decoded at least one copy of the data frame
  /// (possible even when unacked, if only the ACK was lost).
  bool delivered = false;
  /// Number of transmissions actually performed (frame copies on air).
  int tries = 0;
  /// When the MAC accepted the packet (start of SPI load).
  sim::Time accepted_at = 0;
  /// When the MAC finished with the packet (ACK processed / final timeout).
  sim::Time completed_at = 0;
  /// Total transmit energy radiated for this packet, microjoules
  /// (all attempts, data frames only; ACKs are receiver energy).
  double tx_energy_uj = 0.0;
  /// Total bytes radiated over all attempts.
  int radiated_bytes = 0;
  /// Time the sender's radio spent in RX/listen mode for this packet
  /// (backoffs, turnarounds, ACK waits) — the energy component the paper's
  /// Eq. 2 deliberately excludes but a platform power budget includes.
  sim::Duration listen_time = 0;

  friend bool operator==(const SendResult&, const SendResult&) = default;
};

/// Per-copy delivery notification for the receiver side (fires at data
/// frame end for every successfully decoded copy, including duplicates).
struct DeliveryInfo {
  std::uint64_t packet_id = 0;
  int payload_bytes = 0;
  sim::Time received_at = 0;
  double rssi_dbm = 0.0;
  double snr_db = 0.0;
  int lqi = 0;
  /// 1 for the first attempt of the packet, incrementing per retry.
  int attempt = 0;

  friend bool operator==(const DeliveryInfo&, const DeliveryInfo&) = default;
};

/// Outcome of one radio transmission attempt (observer hook for the
/// attempt-level analysis behind Fig. 6's PER-vs-SNR study).
struct AttemptInfo {
  std::uint64_t packet_id = 0;
  int attempt = 0;  ///< 1-based within the packet
  int payload_bytes = 0;
  sim::Time at = 0;  ///< end of the frame on air
  double rssi_dbm = 0.0;
  double snr_db = 0.0;
  bool data_received = false;
  bool acked = false;

  friend bool operator==(const AttemptInfo&, const AttemptInfo&) = default;
};

/// Abstract sender-side MAC entity: one packet in flight at a time.
class Mac {
 public:
  using DoneCallback = std::function<void(const SendResult&)>;
  using DeliveryCallback = std::function<void(const DeliveryInfo&)>;
  using AttemptCallback = std::function<void(const AttemptInfo&)>;

  virtual ~Mac() = default;

  /// Starts transmitting one packet (payload in [1, 114]); requires no
  /// send in progress. Completion is reported via `done`.
  virtual void Send(std::uint64_t packet_id, int payload_bytes,
                    DoneCallback done) = 0;

  /// True while a send is in progress.
  [[nodiscard]] virtual bool Busy() const = 0;

  /// Installs the receiver-side delivery observer (may be empty).
  virtual void SetDeliveryCallback(DeliveryCallback cb) = 0;

  /// Installs the per-attempt observer (may be empty).
  virtual void SetAttemptCallback(AttemptCallback cb) = 0;

  /// Attaches observability sinks (event tracer and/or counter registry).
  /// Default: no instrumentation. The context's pointees must outlive the
  /// MAC; call before the first Send().
  virtual void AttachTrace(const trace::TraceContext& /*ctx*/) {}

  /// Cumulative count of carrier-sense checks that found the channel busy
  /// (also exported as the "mac.cca_busy" counter when one is attached).
  /// Default 0 for MACs without carrier sensing.
  [[nodiscard]] virtual std::uint64_t CcaBusyCount() const noexcept {
    return 0;
  }
};

}  // namespace wsnlink::mac

#include "mac/lpl_mac.h"

#include <stdexcept>

#include "mac/csma_mac.h"  // kMaxCcaRetries
#include "phy/cc2420.h"
#include "phy/frame.h"
#include "phy/timing.h"

namespace wsnlink::mac {

namespace {

/// Gap between consecutive copies in a train: the sender's short listen
/// window for the ACK (BoX-MAC-2 uses ~1.6 ms).
constexpr sim::Duration kInterCopyGap = 1'600;

}  // namespace

LplMac::LplMac(sim::Simulator& simulator, channel::Channel& channel,
               LplParams params, util::Rng rng)
    : sim_(simulator), channel_(channel), params_(params), rng_(rng) {
  if (params_.wakeup_interval <= 0) {
    throw std::invalid_argument("LplMac: wakeup interval must be > 0");
  }
  if (params_.max_tries < 1) {
    throw std::invalid_argument("LplMac: max_tries must be >= 1");
  }
  if (params_.retry_delay < 0) {
    throw std::invalid_argument("LplMac: retry_delay must be >= 0");
  }
  if (params_.probe_duration <= 0 ||
      params_.probe_duration >= params_.wakeup_interval) {
    throw std::invalid_argument(
        "LplMac: probe duration must be in (0, wakeup interval)");
  }
  if (!phy::IsValidPaLevel(params_.pa_level)) {
    throw std::invalid_argument("LplMac: invalid PA level");
  }
  // The receiver's wake phase is arbitrary relative to the sender.
  phase_ = static_cast<sim::Duration>(
      rng_.UniformInt(0, params_.wakeup_interval - 1));
}

void LplMac::AttachTrace(const trace::TraceContext& ctx) {
  tracer_ = ctx.tracer;
  counters_ = ctx.counters;
  node_ = ctx.node;
  if (counters_ != nullptr) {
    id_sends_ = counters_->Register("mac.sends");
    id_trains_ = counters_->Register("mac.lpl_trains");
    id_cca_busy_ = counters_->Register("mac.cca_busy");
    id_copies_ = counters_->Register("mac.lpl_copies");
    id_frames_decoded_ = counters_->Register("mac.frames_decoded");
    id_acks_received_ = counters_->Register("mac.acks_received");
    id_bytes_radiated_ = counters_->Register("phy.bytes_radiated");
  }
}

double LplMac::ReceiverIdleDutyCycle() const noexcept {
  return static_cast<double>(params_.probe_duration) /
         static_cast<double>(params_.wakeup_interval);
}

bool LplMac::ReceiverAwake(sim::Time t) const {
  if (receiver_latched_) return true;
  const sim::Duration in_cycle =
      (t - phase_) % params_.wakeup_interval >= 0
          ? (t - phase_) % params_.wakeup_interval
          : (t - phase_) % params_.wakeup_interval + params_.wakeup_interval;
  return in_cycle < params_.probe_duration;
}

void LplMac::Send(std::uint64_t packet_id, int payload_bytes,
                  DoneCallback done) {
  if (busy_) throw std::logic_error("LplMac::Send while busy");
  if (!done) throw std::invalid_argument("LplMac::Send: empty done callback");
  phy::ValidatePayloadSize(payload_bytes);

  busy_ = true;
  packet_id_ = packet_id;
  payload_bytes_ = payload_bytes;
  frame_bytes_ = phy::DataFrameBytes(payload_bytes);
  trains_done_ = 0;
  copies_this_packet_ = 0;
  delivered_any_ = false;
  receiver_latched_ = false;
  acked_ = false;
  accepted_at_ = sim_.Now();
  tx_energy_uj_ = 0.0;
  done_ = std::move(done);

  if (counters_ != nullptr) counters_->Add(id_sends_);
  sim_.Schedule(phy::SpiLoadTime(payload_bytes_), [this] { StartTrain(); });
}

void LplMac::StartTrain() {
  ++trains_done_;
  receiver_latched_ = false;
  if (counters_ != nullptr) counters_->Add(id_trains_);
  if (tracer_ != nullptr) {
    tracer_->Emit({sim_.Now(), trace::EventType::kLplTrainStart,
                   trace::Layer::kMac, packet_id_, trains_done_, 0, 0.0,
                   node_});
  }
  // Short CSMA backoff, then a carrier-sense check before the train.
  const auto backoff = static_cast<sim::Duration>(
      rng_.UniformInt(0, phy::kCongestionBackoffMax));
  sim_.Schedule(backoff + phy::kTurnaroundTime,
                [this] { TrainCca(kMaxCcaRetries); });
}

void LplMac::TrainCca(int retries_left) {
  // Only the shared medium is sensed (MediumBusy is RNG-free): the solo
  // LPL sender never sampled the channel before a train, and folding the
  // noise/interferer legs in here would shift their renewal streams and
  // break bit-identity of every existing single-link run.
  if (!channel_.MediumBusy(sim_.Now())) {
    BeginCopies();
    return;
  }
  ++cca_busy_;
  if (counters_ != nullptr) counters_->Add(id_cca_busy_);
  if (tracer_ != nullptr) {
    tracer_->Emit({sim_.Now(), trace::EventType::kCcaBusy, trace::Layer::kMac,
                   packet_id_, retries_left, 0, 0.0, node_});
  }
  if (retries_left <= 0) {
    // Persistent contention: transmit anyway — the train must cover the
    // receiver's wakeup window or the packet has no chance at all, and the
    // collision logic at the receiver decides what survives.
    BeginCopies();
    return;
  }
  const auto backoff = static_cast<sim::Duration>(
      rng_.UniformInt(0, phy::kCongestionBackoffMax));
  sim_.Schedule(backoff, [this, retries_left] { TrainCca(retries_left - 1); });
}

void LplMac::BeginCopies() {
  // The train runs for up to one wakeup interval plus a probe
  // (guaranteeing the receiver's window is covered).
  const sim::Time deadline =
      sim_.Now() + params_.wakeup_interval + params_.probe_duration;
  SendCopy(deadline);
}

void LplMac::SendCopy(sim::Time train_deadline) {
  const sim::Duration airtime = phy::AirTime(frame_bytes_);
  ++copies_sent_;
  ++copies_this_packet_;
  tx_energy_uj_ += phy::EnergyPerBitMicrojoule(params_.pa_level) * 8.0 *
                   static_cast<double>(frame_bytes_);

  if (counters_ != nullptr) {
    counters_->Add(id_copies_);
    counters_->Add(id_bytes_radiated_, static_cast<std::uint64_t>(frame_bytes_));
  }
  if (tracer_ != nullptr) {
    tracer_->Emit({sim_.Now(), trace::EventType::kLplCopySent,
                   trace::Layer::kMac, packet_id_, trains_done_,
                   copies_this_packet_, 0.0, node_});
  }
  channel_.BeginTransmission(phy::OutputPowerDbm(params_.pa_level), sim_.Now(),
                             sim_.Now() + airtime);

  sim_.Schedule(airtime, [this, train_deadline] {
    const double tx_dbm = phy::OutputPowerDbm(params_.pa_level);
    const auto outcome = channel_.Transmit(tx_dbm, frame_bytes_, sim_.Now());
    const bool decoded = outcome.received && ReceiverAwake(sim_.Now());

    if (decoded) {
      if (!receiver_latched_ && tracer_ != nullptr) {
        tracer_->Emit({sim_.Now(), trace::EventType::kLplReceiverWake,
                       trace::Layer::kMac, packet_id_, trains_done_, 0, 0.0,
                       node_});
      }
      receiver_latched_ = true;
      delivered_any_ = true;
      if (counters_ != nullptr) counters_->Add(id_frames_decoded_);
      if (on_delivery_) {
        DeliveryInfo info;
        info.packet_id = packet_id_;
        info.payload_bytes = payload_bytes_;
        info.received_at = sim_.Now();
        info.rssi_dbm = outcome.rssi_dbm;
        info.snr_db = outcome.snr_db;
        info.lqi = outcome.lqi;
        info.attempt = trains_done_;
        on_delivery_(info);
      }
      // The receiver acknowledges; the ACK traverses the channel too.
      const auto ack = channel_.Transmit(tx_dbm, phy::kAckFrameBytes,
                                         sim_.Now());
      if (ack.received) {
        if (counters_ != nullptr) counters_->Add(id_acks_received_);
        if (tracer_ != nullptr) {
          tracer_->Emit({sim_.Now(), trace::EventType::kAckReceived,
                         trace::Layer::kMac, packet_id_, trains_done_, 0, 0.0,
                         node_});
        }
        if (on_attempt_) {
          AttemptInfo info;
          info.packet_id = packet_id_;
          info.attempt = trains_done_;
          info.payload_bytes = payload_bytes_;
          info.at = sim_.Now();
          info.rssi_dbm = outcome.rssi_dbm;
          info.snr_db = outcome.snr_db;
          info.data_received = true;
          info.acked = true;
          on_attempt_(info);
        }
        sim_.Schedule(phy::kAckTime, [this] { FinishTrain(true); });
        return;
      }
      // ACK lost: keep the train going; the awake receiver will re-ack a
      // later copy.
    }

    const sim::Time next_copy_end =
        sim_.Now() + kInterCopyGap + phy::AirTime(frame_bytes_);
    if (next_copy_end > train_deadline) {
      if (on_attempt_) {
        AttemptInfo info;
        info.packet_id = packet_id_;
        info.attempt = trains_done_;
        info.payload_bytes = payload_bytes_;
        info.at = sim_.Now();
        info.rssi_dbm = outcome.rssi_dbm;
        info.snr_db = outcome.snr_db;
        info.data_received = receiver_latched_;
        info.acked = false;
        on_attempt_(info);
      }
      FinishTrain(false);
      return;
    }
    sim_.Schedule(kInterCopyGap,
                  [this, train_deadline] { SendCopy(train_deadline); });
  });
}

void LplMac::FinishTrain(bool acked) {
  if (acked) {
    acked_ = true;
    Complete();
    return;
  }
  if (trains_done_ >= params_.max_tries) {
    Complete();
    return;
  }
  sim_.Schedule(params_.retry_delay, [this] { StartTrain(); });
}

void LplMac::Complete() {
  SendResult result;
  result.packet_id = packet_id_;
  result.acked = acked_;
  result.delivered = delivered_any_;
  result.tries = trains_done_;
  result.accepted_at = accepted_at_;
  result.completed_at = sim_.Now();
  result.tx_energy_uj = tx_energy_uj_;
  result.radiated_bytes = frame_bytes_ * copies_this_packet_;

  busy_ = false;
  DoneCallback done = std::move(done_);
  done_ = nullptr;
  done(result);
}

}  // namespace wsnlink::mac

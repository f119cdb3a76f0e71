#include "link/link_layer.h"

#include <stdexcept>

namespace wsnlink::link {

LinkLayer::LinkLayer(sim::Simulator& simulator, mac::Mac& mac,
                     int queue_capacity)
    : LinkLayer(simulator, mac, queue_capacity, Storage{}) {}

LinkLayer::LinkLayer(sim::Simulator& simulator, mac::Mac& mac,
                     int queue_capacity, Storage storage)
    : sim_(simulator),
      mac_(mac),
      queue_(queue_capacity, storage.queue),
      open_records_(storage.open_records != nullptr ? storage.open_records
                                                    : &own_open_records_) {
  open_records_->clear();
  open_records_->reserve(static_cast<std::size_t>(queue_capacity) + 1);
  mac_.SetDeliveryCallback(
      [this](const mac::DeliveryInfo& info) { OnDelivery(info); });
  mac_.SetAttemptCallback([this](const mac::AttemptInfo& info) {
    AttemptRecord record;
    record.packet_id = info.packet_id;
    record.attempt = info.attempt;
    record.payload_bytes = info.payload_bytes;
    record.at = info.at;
    record.rssi_dbm = info.rssi_dbm;
    record.snr_db = info.snr_db;
    record.data_received = info.data_received;
    record.acked = info.acked;
    log_.AddAttempt(record);
  });
}

void LinkLayer::AttachTrace(const trace::TraceContext& ctx) {
  tracer_ = ctx.tracer;
  counters_ = ctx.counters;
  node_ = ctx.node;
  queue_.AttachCounters(ctx.counters);
  if (counters_ != nullptr) {
    id_accepted_ = counters_->Register("link.accepted");
    id_queue_drops_ = counters_->Register("link.queue_drops");
    id_served_ = counters_->Register("link.served");
    id_completed_ = counters_->Register("link.completed");
    id_acked_ = counters_->Register("link.acked");
    id_deliveries_ = counters_->Register("link.deliveries");
  }
}

bool LinkLayer::Accept(std::uint64_t packet_id, int payload_bytes) {
  PacketRecord record;
  record.id = packet_id;
  record.payload_bytes = payload_bytes;
  record.arrived_at = sim_.Now();
  record.queue_depth_at_arrival = queue_.Occupancy();

  if (tracer_ != nullptr) {
    tracer_->Emit({sim_.Now(), trace::EventType::kPacketArrival,
                   trace::Layer::kLink, packet_id,
                   record.queue_depth_at_arrival, payload_bytes, 0.0,
                   node_});
  }

  QueuedPacket packet{packet_id, payload_bytes, sim_.Now()};
  const bool accepted = queue_.Offer(packet);
  record.dropped_at_queue = !accepted;

  log_.AddPacket(record);
  if (!accepted) {
    if (counters_ != nullptr) counters_->Add(id_queue_drops_);
    if (tracer_ != nullptr) {
      tracer_->Emit({sim_.Now(), trace::EventType::kQueueDrop,
                     trace::Layer::kLink, packet_id, queue_.Occupancy(), 0,
                     0.0, node_});
    }
    return false;
  }

  if (counters_ != nullptr) counters_->Add(id_accepted_);
  if (tracer_ != nullptr) {
    tracer_->Emit({sim_.Now(), trace::EventType::kQueueEnqueue,
                   trace::Layer::kLink, packet_id, queue_.Occupancy(), 0,
                   0.0, node_});
  }

  open_records_->emplace_back(packet_id, log_.Packets().size() - 1);
  if (!queue_.InService()) ServeNext();
  return true;
}

void LinkLayer::ServeNext() {
  if (queue_.InService() || !queue_.HasWaiting()) return;
  const QueuedPacket head = queue_.StartService();
  in_service_id_ = head.id;

  const OpenRecord* open = FindOpen(head.id);
  if (open == nullptr) {
    throw std::logic_error("LinkLayer: serving unknown packet");
  }
  log_.MutablePacket(open->second).service_start = sim_.Now();

  if (counters_ != nullptr) counters_->Add(id_served_);
  if (tracer_ != nullptr) {
    tracer_->Emit({sim_.Now(), trace::EventType::kServiceStart,
                   trace::Layer::kLink, head.id, queue_.Occupancy(),
                   head.payload_bytes, 0.0, node_});
  }

  mac_.Send(head.id, head.payload_bytes,
            [this](const mac::SendResult& result) { OnSendDone(result); });
}

void LinkLayer::OnSendDone(const mac::SendResult& result) {
  OpenRecord* open = FindOpen(result.packet_id);
  if (open == nullptr) {
    throw std::logic_error("LinkLayer: completion for unknown packet");
  }
  PacketRecord& record = log_.MutablePacket(open->second);
  record.completed_at = result.completed_at;
  record.acked = result.acked;
  record.delivered = result.delivered;
  record.tries = result.tries;
  record.tx_energy_uj = result.tx_energy_uj;
  record.listen_time = result.listen_time;
  // Swap-erase: lookup is by id, so order within the array is irrelevant.
  *open = open_records_->back();
  open_records_->pop_back();

  if (counters_ != nullptr) {
    counters_->Add(id_completed_);
    if (result.acked) counters_->Add(id_acked_);
  }
  if (tracer_ != nullptr) {
    tracer_->Emit({sim_.Now(), trace::EventType::kPacketCompleted,
                   trace::Layer::kLink, result.packet_id, result.tries,
                   (result.acked ? trace::kFlagAcked : 0) |
                       (result.delivered ? trace::kFlagDelivered : 0),
                   result.tx_energy_uj, node_});
  }

  queue_.FinishService();
  ServeNext();
}

void LinkLayer::OnDelivery(const mac::DeliveryInfo& info) {
  if (counters_ != nullptr) counters_->Add(id_deliveries_);
  if (tracer_ != nullptr) {
    tracer_->Emit({info.received_at, trace::EventType::kPacketDelivered,
                   trace::Layer::kLink, info.packet_id, info.attempt,
                   info.payload_bytes, info.rssi_dbm, node_});
  }
  if (const OpenRecord* open = FindOpen(info.packet_id)) {
    PacketRecord& record = log_.MutablePacket(open->second);
    if (record.first_delivered_at == kNever) {
      record.first_delivered_at = info.received_at;
      record.rssi_dbm = info.rssi_dbm;
      record.snr_db = info.snr_db;
      record.lqi = info.lqi;
    }
  }
  if (on_delivery_) on_delivery_(info);
}

LinkLayer::OpenRecord* LinkLayer::FindOpen(std::uint64_t packet_id) noexcept {
  for (OpenRecord& entry : *open_records_) {
    if (entry.first == packet_id) return &entry;
  }
  return nullptr;
}

}  // namespace wsnlink::link

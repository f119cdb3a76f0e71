#include "trace/trace.h"

#include <algorithm>
#include <stdexcept>

namespace wsnlink::trace {

const char* EventTypeName(EventType type) noexcept {
  switch (type) {
    case EventType::kPacketGenerated: return "PacketGenerated";
    case EventType::kPacketArrival: return "PacketArrival";
    case EventType::kQueueEnqueue: return "QueueEnqueue";
    case EventType::kQueueDrop: return "QueueDrop";
    case EventType::kServiceStart: return "ServiceStart";
    case EventType::kPacketCompleted: return "PacketCompleted";
    case EventType::kPacketDelivered: return "PacketDelivered";
    case EventType::kTxAttemptStart: return "TxAttemptStart";
    case EventType::kTxAttemptResult: return "TxAttemptResult";
    case EventType::kAckReceived: return "AckReceived";
    case EventType::kCcaBusy: return "CcaBusy";
    case EventType::kRadioState: return "RadioState";
    case EventType::kLplTrainStart: return "LplTrainStart";
    case EventType::kLplCopySent: return "LplCopySent";
    case EventType::kLplReceiverWake: return "LplReceiverWake";
  }
  return "Unknown";
}

const char* LayerName(Layer layer) noexcept {
  switch (layer) {
    case Layer::kSim: return "sim";
    case Layer::kPhy: return "phy";
    case Layer::kMac: return "mac";
    case Layer::kLink: return "link";
    case Layer::kApp: return "app";
  }
  return "unknown";
}

Tracer::Tracer(std::size_t capacity) {
  if (capacity < 1) {
    throw std::invalid_argument("Tracer: capacity must be >= 1");
  }
  ring_.resize(capacity);
}

std::vector<TraceEvent> Tracer::Events() const {
  const std::size_t capacity = ring_.size();
  const std::size_t retained =
      emitted_ < capacity ? static_cast<std::size_t>(emitted_) : capacity;
  std::vector<TraceEvent> out;
  out.reserve(retained);
  // Oldest retained event sits at emitted_ % capacity once wrapped.
  const std::size_t start =
      emitted_ <= capacity ? 0 : static_cast<std::size_t>(emitted_ % capacity);
  for (std::size_t i = 0; i < retained; ++i) {
    out.push_back(ring_[(start + i) % capacity]);
  }
  // Layers may emit ahead of the simulator clock (the CSMA MAC's inline
  // ladder does), so restore time order; emission order breaks ties.
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.at < b.at;
                   });
  return out;
}

}  // namespace wsnlink::trace

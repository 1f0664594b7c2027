#include "tracing.hpp"

#include "flowdb/partitioned/envelope.hpp"

namespace perfbench {

namespace {

using megads::flowdb::dist::MessageType;

/// The envelope type byte follows the u32 magic and the u8 version.
constexpr std::size_t kTypeOffset = 5;

std::size_t envelope_type(const std::vector<std::uint8_t>& payload) {
  if (payload.size() <= kTypeOffset) return 0;
  const std::size_t type = payload[kTypeOffset];
  return type < TracingTransport::kTypes ? type : 0;
}

const char* handler_span(std::size_t type) {
  switch (static_cast<MessageType>(type)) {
    case MessageType::kAddBatch:
      return "shard.add";
    case MessageType::kQueryRequest:
      return "shard.query";
    case MessageType::kQueryResponse:
      return "coord.response";
    default:
      return "net.other";
  }
}

}  // namespace

megads::flowtree::Flowtree TracingSource::merged(
    const std::vector<megads::TimeInterval>& intervals,
    const std::vector<std::string>& locations) const {
  const SpanRecorder::Scope span(spans_, "coord.merged");
  return inner_.merged(intervals, locations);
}

megads::flowtree::MergedView TracingSource::merged_view(
    const std::vector<megads::TimeInterval>& intervals,
    const std::vector<std::string>& locations) const {
  const SpanRecorder::Scope span(spans_, "coord.merged");
  return inner_.merged_view(intervals, locations);
}

megads::flowtree::MergedView TracingSource::merged_view_hint(
    const std::vector<megads::TimeInterval>& intervals,
    const std::vector<std::string>& locations,
    megads::flowdb::CacheMode mode) const {
  const SpanRecorder::Scope span(spans_, "coord.merged");
  return inner_.merged_view_hint(intervals, locations, mode);
}

megads::flowdb::PlanProbe TracingSource::plan_probe(
    const std::vector<megads::TimeInterval>& intervals,
    const std::vector<std::string>& locations) const {
  const SpanRecorder::Scope span(spans_, "plan.probe");
  return inner_.plan_probe(intervals, locations);
}

megads::SimTime TracingTransport::send_message(
    megads::NodeId from, megads::NodeId to, std::vector<std::uint8_t> payload) {
  bytes_by_type_[envelope_type(payload)].fetch_add(payload.size(),
                                                   std::memory_order_relaxed);
  return inner_.send_message(from, to, std::move(payload));
}

void TracingTransport::bind(megads::NodeId node, MessageHandler handler) {
  inner_.bind(node, [this, handler = std::move(handler)](
                        megads::NodeId from,
                        const std::vector<std::uint8_t>& payload,
                        megads::SimTime now) {
    const SpanRecorder::Scope span(spans_, handler_span(envelope_type(payload)));
    handler(from, payload, now);
  });
}

}  // namespace perfbench

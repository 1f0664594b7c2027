// Decorators for the traced run. They time the calls into each layer from
// outside the program, through its public interfaces only:
//
//   TracingSource     wraps the SummarySource the FlowQLServer executes on
//                     (the partitioned Coordinator): plan_probe() becomes a
//                     "plan.probe" span, every merge a "coord.merged" span.
//   TracingTransport  wraps the Transport the Coordinator and the partition
//                     servers share; bind() wraps each handler in a span
//                     named for the envelope type it receives ("shard.add",
//                     "shard.query", "coord.response") and counts the bytes
//                     of each envelope type.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "flowdb/source.hpp"
#include "harness.hpp"
#include "net/transport.hpp"

namespace perfbench {

class TracingSource final : public megads::flowdb::SummarySource {
 public:
  /// `inner` and `spans` must outlive the decorator.
  TracingSource(const megads::flowdb::SummarySource& inner, SpanRecorder& spans)
      : inner_(inner), spans_(&spans) {}
  // The server executing on this source holds its address.
  TracingSource(const TracingSource&) = delete;
  TracingSource& operator=(const TracingSource&) = delete;

  [[nodiscard]] megads::flowtree::Flowtree merged(
      const std::vector<megads::TimeInterval>& intervals,
      const std::vector<std::string>& locations) const override;
  [[nodiscard]] megads::flowtree::MergedView merged_view(
      const std::vector<megads::TimeInterval>& intervals,
      const std::vector<std::string>& locations) const override;
  [[nodiscard]] megads::flowtree::MergedView merged_view_hint(
      const std::vector<megads::TimeInterval>& intervals,
      const std::vector<std::string>& locations,
      megads::flowdb::CacheMode mode) const override;
  [[nodiscard]] megads::flowdb::PlanProbe plan_probe(
      const std::vector<megads::TimeInterval>& intervals,
      const std::vector<std::string>& locations) const override;
  [[nodiscard]] megads::ThreadPool* merge_pool() const noexcept override {
    return inner_.merge_pool();
  }

 private:
  const megads::flowdb::SummarySource& inner_;
  SpanRecorder* spans_;
};

class TracingTransport final : public megads::net::Transport {
 public:
  /// Envelope types of the partitioned FlowDB are 1..5; slot 0 counts
  /// payloads that carry no envelope header.
  static constexpr std::size_t kTypes = 6;

  /// `inner` and `spans` must outlive the decorator.
  TracingTransport(megads::net::Transport& inner, SpanRecorder& spans)
      : inner_(inner), spans_(&spans) {}
  // Bound handlers capture `this`.
  TracingTransport(const TracingTransport&) = delete;
  TracingTransport& operator=(const TracingTransport&) = delete;

  megads::SimTime send(megads::NodeId from, megads::NodeId to,
                       std::uint64_t bytes,
                       DeliveryCallback on_delivered) override {
    return inner_.send(from, to, bytes, std::move(on_delivered));
  }
  megads::SimTime send_message(megads::NodeId from, megads::NodeId to,
                               std::vector<std::uint8_t> payload) override;
  void bind(megads::NodeId node, MessageHandler handler) override;
  void unbind(megads::NodeId node) override { inner_.unbind(node); }
  [[nodiscard]] megads::SimDuration transfer_time_unloaded(
      megads::NodeId from, megads::NodeId to,
      std::uint64_t bytes) const override {
    return inner_.transfer_time_unloaded(from, to, bytes);
  }
  [[nodiscard]] megads::SimTime now() const override { return inner_.now(); }
  void run_until_idle() override { inner_.run_until_idle(); }
  [[nodiscard]] megads::net::TransferStats stats() const override {
    return inner_.stats();
  }
  void attach_metrics(megads::metrics::MetricsRegistry& registry) override {
    inner_.attach_metrics(registry);
  }

  /// Payload bytes sent per envelope type (index = MessageType value).
  [[nodiscard]] std::uint64_t payload_bytes(std::size_t type) const {
    return bytes_by_type_[type].load(std::memory_order_relaxed);
  }

 private:
  megads::net::Transport& inner_;
  SpanRecorder* spans_;
  std::array<std::atomic<std::uint64_t>, kTypes> bytes_by_type_{};
};

}  // namespace perfbench

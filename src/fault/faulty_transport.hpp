// Transport decorator that injects message-level faults AND the recovery
// machinery that masks them, so the protocol trajectory over a faulty
// channel stays bit-identical to the fault-free run:
//
//   drop     -> the attempt never reaches the inner transport; the sender
//               retransmits deterministically (the ARQ a real deployment
//               would run on top of its frames)
//   corrupt  -> the frame CRC catches any byte flip, so a corrupted attempt
//               behaves like a detected drop: counted, then retransmitted
//   dup      -> the message enters the inner transport twice; the receive
//               side deduplicates on (type, from, to, interval, payload
//               width), which is a unique key for every legitimate protocol
//               message — the width (values per id) tells apart the
//               volume-, score-, and sketch-shaped kAggregates a regional
//               NOC sends to the root within one interval
//   reorder  -> the message is held back and released on the next receive
//               operation, after messages sent later — the interval
//               assemblers are order-insensitive within an interval, and
//               the flush-on-any-receive rule keeps the lock-step protocol
//               free of holds it could deadlock on
//
// Composes over any Transport (SimNetwork, TcpTransport) unchanged.
// Kill and reset events need daemon cooperation and are driven by the chaos
// harness (fault/chaos.hpp), not by this decorator.
#pragma once

#include <cstdint>
#include <mutex>
#include <set>
#include <tuple>
#include <vector>

#include "fault/fault_plan.hpp"
#include "net/transport.hpp"

namespace spca {

/// What the decorator injected (and recovered from) so far.
struct FaultInjectionStats {
  std::uint64_t drops = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t reorders = 0;
  /// Extra send attempts the ARQ performed to mask drops/corruptions.
  std::uint64_t retransmits = 0;
  /// Duplicate messages removed on the receive side.
  std::uint64_t deduplicated = 0;
};

/// Thread-safe sink summing the stats of decorators that outlive their
/// creator's view of them (the chaos harness hands decorators to daemons
/// and collects the totals here when they are destroyed).
class FaultStatsAccumulator final {
 public:
  void add(const FaultInjectionStats& stats);
  [[nodiscard]] FaultInjectionStats total() const;

 private:
  mutable std::mutex mutex_;
  FaultInjectionStats total_;
};

/// The decorating transport. Thread-safe to the same degree as the inner
/// transport (all fault state is mutex-guarded).
class FaultyTransport final : public Transport {
 public:
  /// Wraps `inner` (not owned; must outlive the decorator) with the message
  /// faults of `plan`. Kill/reset events in the plan are ignored here. A
  /// non-null `sink` (not owned, must outlive the decorator) receives the
  /// final fault stats on destruction.
  FaultyTransport(Transport& inner, const FaultPlanConfig& plan,
                  FaultStatsAccumulator* sink = nullptr);
  ~FaultyTransport() override;

  // Transport interface. send() runs the fault pipeline; the receive
  // operations first release held (reordered) messages into the inner
  // transport, then delegate and deduplicate.
  void send(const Message& msg) override;
  [[nodiscard]] std::vector<Message> drain(NodeId node) override;
  [[nodiscard]] std::vector<Message> take(NodeId node,
                                          MessageType type) override;
  [[nodiscard]] bool has_mail(NodeId node) const override;
  bool wait_for_mail(NodeId node, std::chrono::milliseconds timeout) override;
  [[nodiscard]] const NetworkStats& stats() const noexcept override {
    return inner_.stats();
  }
  void reset_stats() noexcept override { inner_.reset_stats(); }

  [[nodiscard]] FaultInjectionStats fault_stats() const;

 private:
  /// Releases every held message into the inner transport (FIFO).
  void flush_held() const;
  /// Removes messages whose (type, from, to, interval, width) key was
  /// delivered before.
  std::vector<Message> deduplicate(std::vector<Message> messages) const;

  Transport& inner_;
  mutable std::mutex mutex_;
  mutable FaultPlan plan_;
  mutable std::vector<Message> held_;
  using DedupKey =
      std::tuple<std::uint8_t, NodeId, NodeId, std::int64_t, std::size_t>;
  mutable std::set<DedupKey> delivered_;
  mutable FaultInjectionStats fault_stats_;
  FaultStatsAccumulator* sink_;
};

}  // namespace spca

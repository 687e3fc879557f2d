// tcp-diamond: the flat deployment over TcpTransport loopback in one
// process — NocDaemon on the calling thread, one MonitorDaemon thread per
// monitor, and each daemon's TcpTransport I/O thread — observed through
// bench-owned Transport decorators passed as the daemons' wrap_transport
// hooks.
#include <array>
#include <atomic>
#include <exception>
#include <future>
#include <limits>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "common/error.hpp"
#include "dist/local_monitor.hpp"
#include "net/monitor_daemon.hpp"
#include "net/noc_daemon.hpp"

namespace spca::e2e {

namespace {

/// State every decorator of one launch shares across daemon threads.
struct Shared {
  /// First evaluated interval, n - 1: monitor 1's report of it starts the
  /// timed phase.
  std::int64_t first_eval = 0;
  /// Stop the NOC this long after the timed phase starts (0 = run to the
  /// configured last interval).
  double stop_after_s = 0.0;
  bool trace = false;
  std::atomic<bool> timed{false};
  std::atomic<std::int64_t> deadline_ns{
      std::numeric_limits<std::int64_t>::max()};
  std::atomic<NocDaemon*> noc{nullptr};
};

/// What one decorator saw. Written only by the thread running its daemon
/// and read after that thread joined.
struct WireLog {
  double send_s = 0.0;
  double take_s = 0.0;
  double wait_s = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::array<std::uint64_t, 7> messages_by_type{};
  std::array<std::uint64_t, 7> bytes_by_type{};
  // Monitor 1 only: the report that started the timed phase, and the cycle
  // time between successive volume reports.
  bool started = false;
  Clock::time_point timed_start{};
  IntervalSamples cycles;
};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Counts and times the Message-level traffic of one daemon. Messages of
/// evaluated intervals are counted by their own interval field, so a
/// monitor that reports before monitor 1 does is still counted.
class WireProbe final : public Transport {
 public:
  WireProbe(Transport& inner, NodeId node, Shared& shared, WireLog& log)
      : inner_(inner), node_(node), shared_(shared), log_(log) {}

  void send(const Message& msg) override {
    if (node_ == 1) observe_cycle(msg);
    const bool timed = msg.interval >= shared_.first_eval;
    const Clock::time_point start =
        timed && shared_.trace ? Clock::now() : Clock::time_point{};
    inner_.send(msg);
    if (!timed) return;
    if (shared_.trace) {
      const Clock::time_point end = Clock::now();
      log_.send_s += seconds_between(start, end);
      mark_ = end;
      marked_ = true;
    }
    const auto type = static_cast<std::size_t>(msg.type);
    const std::size_t bytes = msg.wire_bytes();
    ++log_.messages;
    log_.bytes += bytes;
    ++log_.messages_by_type[type];
    log_.bytes_by_type[type] += bytes;
  }

  std::vector<Message> drain(NodeId node) override {
    if (!timing()) return inner_.drain(node);
    // A monitor waits in wait_for_activity on the raw transport, between
    // two mailbox drains; the gap since its last drain or send is that wait.
    const Clock::time_point start = Clock::now();
    if (marked_) log_.wait_s += seconds_between(mark_, start);
    std::vector<Message> out = inner_.drain(node);
    mark_ = Clock::now();
    marked_ = true;
    log_.take_s += seconds_between(start, mark_);
    return out;
  }

  std::vector<Message> take(NodeId node, MessageType type) override {
    if (stop_due(type)) {
      // Past the deadline the NOC's phase-1 poll sees no reports and winds
      // down cleanly at an interval boundary, never inside a pull.
      if (!stopping_) {
        stopping_ = true;
        shared_.noc.load()->request_stop();
      }
      (void)inner_.take(node, type);
      return {};
    }
    if (!timing()) return inner_.take(node, type);
    const Clock::time_point start = Clock::now();
    std::vector<Message> out = inner_.take(node, type);
    log_.take_s += seconds_between(start, Clock::now());
    return out;
  }

  [[nodiscard]] bool has_mail(NodeId node) const override {
    return inner_.has_mail(node);
  }

  bool wait_for_mail(NodeId node, std::chrono::milliseconds timeout) override {
    if (!timing()) return inner_.wait_for_mail(node, timeout);
    const Clock::time_point start = Clock::now();
    const bool ready = inner_.wait_for_mail(node, timeout);
    log_.wait_s += seconds_between(start, Clock::now());
    return ready;
  }

  [[nodiscard]] const NetworkStats& stats() const noexcept override {
    return inner_.stats();
  }
  void reset_stats() noexcept override { inner_.reset_stats(); }

 private:
  [[nodiscard]] bool timing() const {
    return shared_.trace && shared_.timed.load(std::memory_order_relaxed);
  }

  [[nodiscard]] bool stop_due(MessageType type) const {
    return node_ == kNocId && shared_.stop_after_s > 0.0 &&
           (type == MessageType::kVolumeReport ||
            type == MessageType::kScoreReport) &&
           now_ns() >= shared_.deadline_ns.load(std::memory_order_relaxed);
  }

  void observe_cycle(const Message& msg) {
    if (msg.type == MessageType::kSketchResponse) pulled_ = true;
    if (msg.type != MessageType::kVolumeReport ||
        msg.interval < shared_.first_eval) {
      return;
    }
    const Clock::time_point now = Clock::now();
    if (!log_.started) {
      log_.started = true;
      log_.timed_start = now;
      if (shared_.stop_after_s > 0.0) {
        const auto budget = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(shared_.stop_after_s));
        shared_.deadline_ns.store(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                (now + budget).time_since_epoch())
                .count());
      }
      shared_.timed.store(true);
    } else {
      log_.cycles.add(seconds_between(last_report_, now) * 1e3, pulled_);
    }
    last_report_ = now;
    pulled_ = false;
  }

  Transport& inner_;
  NodeId node_;
  Shared& shared_;
  WireLog& log_;
  bool stopping_ = false;
  bool pulled_ = false;
  Clock::time_point last_report_{};
  bool marked_ = false;
  Clock::time_point mark_{};
};

/// The monitor daemons of one launch, each on its own thread. The destructor
/// stops and joins any still running, so an exception cannot leave a
/// joinable thread behind.
class MonitorFleet final {
 public:
  MonitorFleet() = default;
  ~MonitorFleet() { stop(); }
  MonitorFleet(const MonitorFleet&) = delete;
  MonitorFleet& operator=(const MonitorFleet&) = delete;

  /// Starts a daemon and blocks until it has built its world and dialled
  /// the NOC (its wrap_transport hook ran). Daemons thus set up one after
  /// another, so peak memory does not depend on how their world builds
  /// happen to overlap. Rethrows a start-up failure.
  void start(MonitorDaemonConfig config) {
    auto ready = std::make_shared<std::promise<void>>();
    std::future<void> started = ready->get_future();
    auto wrap = std::move(config.wrap_transport);
    config.wrap_transport = [wrap, ready](Transport& inner) {
      std::unique_ptr<Transport> probe = wrap(inner);
      ready->set_value();
      return probe;
    };
    slots_.push_back(std::make_unique<Slot>());
    Slot& slot = *slots_.back();
    slot.daemon = std::make_unique<MonitorDaemon>(std::move(config));
    slot.thread = std::thread([&slot, ready] {
      try {
        slot.result = slot.daemon->run();
      } catch (...) {
        slot.error = std::current_exception();
      }
      // Releases start() if the daemon ended before dialling; otherwise
      // the promise is already satisfied and a failure surfaces through
      // rethrow_error().
      try {
        if (slot.error) {
          ready->set_exception(slot.error);
        } else {
          ready->set_value();
        }
      } catch (const std::future_error&) {
      }
    });
    started.get();
  }

  void stop() {
    for (const auto& slot : slots_) slot->daemon->request_stop();
    for (const auto& slot : slots_) {
      if (slot->thread.joinable()) slot->thread.join();
    }
  }

  /// After stop(): rethrows the first daemon failure, if any.
  void rethrow_error() const {
    for (const auto& slot : slots_) {
      if (slot->error) std::rethrow_exception(slot->error);
    }
  }

  [[nodiscard]] std::uint64_t reconnects() const {
    std::uint64_t sum = 0;
    for (const auto& slot : slots_) sum += slot->result.reconnects;
    return sum;
  }

 private:
  struct Slot {
    std::unique_ptr<MonitorDaemon> daemon;
    MonitorDaemonResult result;
    std::exception_ptr error;
    std::thread thread;
  };
  std::vector<std::unique_ptr<Slot>> slots_;
};

/// One deployment from daemon construction to shutdown.
struct Launch {
  ScenarioRun run;
  double setup_s = 0.0;
  /// From monitor 1's report of n - 1 to the NOC's run() returning.
  double noc_timed_s = 0.0;
  std::vector<WireLog> logs;  // [0] = NOC, [i] = monitor i
  std::uint64_t reconnects = 0;
};

/// Runs the deployment through `last_interval` (-1 = the whole world), or
/// until `stop_after_s` past the timed start when that is positive.
Launch launch(const Workload& w, const Options& opt, std::int64_t last_interval,
              double stop_after_s) {
  NetScenarioConfig config = w.scenario;
  config.seed = opt.seed;
  const std::size_t k = config.monitors;
  Shared shared;
  shared.first_eval = static_cast<std::int64_t>(config.window) - 1;
  shared.stop_after_s = stop_after_s;
  shared.trace = opt.trace;
  Launch out;
  out.logs.resize(k + 1);
  const auto probe = [&shared, &out](NodeId node) {
    return [&shared, &out, node](Transport& inner) {
      return std::unique_ptr<Transport>(
          std::make_unique<WireProbe>(inner, node, shared, out.logs[node]));
    };
  };

  const Clock::time_point start = Clock::now();
  NocDaemonConfig noc_config;
  noc_config.scenario = config;
  noc_config.last_interval = last_interval;
  noc_config.wrap_transport = probe(kNocId);
  NocDaemon noc(noc_config);
  noc.start();
  shared.noc.store(&noc);

  MonitorFleet fleet;  // after `noc`: monitors are joined before it closes
  for (NodeId id = 1; id <= k; ++id) {
    MonitorDaemonConfig mc;
    mc.scenario = config;
    mc.monitor_id = id;
    mc.noc_port = noc.bound_port();
    mc.last_interval = last_interval;
    mc.wrap_transport = probe(id);
    fleet.start(std::move(mc));
  }
  std::exception_ptr noc_error;
  try {
    out.run = noc.run();
  } catch (...) {
    noc_error = std::current_exception();
  }
  const Clock::time_point noc_end = Clock::now();
  fleet.stop();
  if (noc_error) std::rethrow_exception(noc_error);
  fleet.rethrow_error();

  const WireLog& first = out.logs[1];
  if (!first.started) throw Error("tcp: monitor 1 never reached evaluation");
  out.setup_s = seconds_between(start, first.timed_start);
  out.noc_timed_s = seconds_between(first.timed_start, noc_end);
  out.reconnects = noc.reconnects() + fleet.reconnects();
  return out;
}

/// `field` summed over the NOC's and every monitor's log.
template <typename T>
T sum_of(const Launch& l, T WireLog::*field) {
  T sum{};
  for (const WireLog& log : l.logs) sum += log.*field;
  return sum;
}

/// One message type's slot of a per-type counter, summed over every log.
std::uint64_t sum_of(const Launch& l,
                     std::array<std::uint64_t, 7> WireLog::*field,
                     MessageType type) {
  std::uint64_t sum = 0;
  for (const WireLog& log : l.logs) {
    sum += (log.*field)[static_cast<std::size_t>(type)];
  }
  return sum;
}

/// Sketch state of monitors warmed through the first n - 1 intervals, built
/// the way each MonitorDaemon builds its own (which the daemons keep
/// private).
std::size_t warm_monitor_bytes(const NetScenario& s) {
  const std::size_t m = s.trace.num_flows();
  const std::size_t k = s.config.monitors;
  const SketchDetectorConfig& det = s.detector;
  std::size_t bytes = 0;
  for (NodeId id = 1; id <= k; ++id) {
    const std::vector<FlowId> flows = scenario_flows_of(m, k, id);
    LocalMonitor monitor(id, flows, det.window, det.epsilon, det.sketch_rows,
                         projection_of(det));
    if (s.config.fusion != "off") monitor.enable_first_line();
    for (std::size_t t = 0; t + 1 < det.window; ++t) {
      for (const FlowId flow : flows) {
        monitor.ingest_volume(flow, s.trace.volumes()(t, flow));
      }
      monitor.absorb_interval(static_cast<std::int64_t>(t));
    }
    bytes += monitor.memory_bytes();
  }
  return bytes;
}

constexpr std::size_t kSetups = 3;

}  // namespace

Report run_tcp(const Workload& w, const Options& opt) {
  Report out;
  const auto first = static_cast<std::int64_t>(w.scenario.window) - 1;
  std::vector<Verdict> verdicts;
  const auto keep = [&verdicts, first](const Launch& l) {
    const std::vector<Verdict> v = verdicts_of(l.run, first);
    verdicts.insert(verdicts.end(), v.begin(), v.end());
  };

  Launch measured;
  if (!opt.trace) {
    // The measured deployment runs first, so peak RSS is that of one
    // deployment on a fresh heap: after a finished one, how much of its
    // freed memory the allocator hands back varies from run to run. Two
    // deployments that stop after the first evaluated interval then repeat
    // the set-up.
    measured = launch(w, opt, -1, opt.seconds);
    out.set("peak_rss_mib", peak_rss_mib());
    std::vector<double> setup_s{measured.setup_s};
    keep(measured);
    for (std::size_t i = 0; i + 1 < kSetups; ++i) {
      const Launch short_run = launch(w, opt, first + 1, 0.0);
      setup_s.push_back(short_run.setup_s);
      keep(short_run);
    }
    report_setup(out, setup_s);
  } else {
    const std::int64_t last =
        first + static_cast<std::int64_t>(w.pass_intervals);
    Options untraced_opt = opt;
    untraced_opt.trace = false;
    const Launch untraced = launch(w, untraced_opt, last, 0.0);
    keep(untraced);
    measured = launch(w, opt, last, 0.0);
    keep(measured);
    out.set("trace.overhead_frac", measured.logs[1].cycles.total_ms() /
                                       untraced.logs[1].cycles.total_ms() -
                                       1.0);
  }

  NetScenarioConfig config = w.scenario;
  config.seed = opt.seed;
  const NetScenario scenario = build_scenario(config);
  const auto requests = static_cast<double>(sum_of(
      measured, &WireLog::messages_by_type, MessageType::kSketchRequest));
  const double pulls = requests / static_cast<double>(config.monitors);
  const auto evaluated = static_cast<double>(measured.run.distances.size());
  const auto per = [](double value, double count) {
    return count == 0.0 ? 0.0 : value / count;
  };

  if (!opt.trace) {
    measured.logs[1].cycles.report(out, w.pull_share);
    const std::uint64_t pull_bytes =
        sum_of(measured, &WireLog::bytes_by_type,
               MessageType::kSketchRequest) +
        sum_of(measured, &WireLog::bytes_by_type,
               MessageType::kSketchResponse);
    out.set("wire_bytes_per_pull",
            per(static_cast<double>(pull_bytes), pulls));
    out.set("monitor_state_kib",
            static_cast<double>(warm_monitor_bytes(scenario)) / 1024.0);
  } else {
    const WireLog& noc = measured.logs[0];
    const auto messages =
        static_cast<double>(sum_of(measured, &WireLog::messages));
    const double send_s = sum_of(measured, &WireLog::send_s);
    out.set("net.noc_wait_s", noc.wait_s);
    out.set("net.monitor_wait_s",
            sum_of(measured, &WireLog::wait_s) - noc.wait_s);
    out.set("net.noc_busy_s", measured.noc_timed_s - noc.wait_s);
    out.set("net.send_s", send_s);
    out.set("net.send_us_per_msg", per(send_s * 1e6, messages));
    out.set("net.take_s", sum_of(measured, &WireLog::take_s));
    out.set("net.messages", messages);
    out.set("net.bytes_tx",
            static_cast<double>(sum_of(measured, &WireLog::bytes)));
    out.set("net.reconnects", static_cast<double>(measured.reconnects));
    out.set("lazy.pulls", pulls);
    out.set("lazy.stale_passes", evaluated - pulls);
    out.set("lazy.useful_pull_ratio",
            per(static_cast<double>(measured.run.alarm_intervals.size()),
                pulls));
    const auto bytes_per_interval = [&](MessageType type) {
      return static_cast<double>(
                 sum_of(measured, &WireLog::bytes_by_type, type)) /
             evaluated;
    };
    out.set("net.sim_bytes.volume_report",
            bytes_per_interval(MessageType::kVolumeReport));
    out.set("net.sim_bytes.sketch_request",
            bytes_per_interval(MessageType::kSketchRequest));
    out.set("net.sim_bytes.sketch_response",
            bytes_per_interval(MessageType::kSketchResponse));
    out.set("net.sim_bytes.aggregate",
            bytes_per_interval(MessageType::kAggregate));
    out.set("net.sim_bytes.score_report",
            bytes_per_interval(MessageType::kScoreReport));
  }

  out.attempted = verdicts.size();
  out.failed = check_against_reference(
      scenario,
      static_cast<std::size_t>(first) + measured.run.distances.size(),
      std::move(verdicts), opt.corrupt);
  return out;
}

}  // namespace spca::e2e

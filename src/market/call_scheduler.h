// Event-loop dispatcher for market calls: keeps hundreds of simulated GETs
// in flight per worker thread instead of parking one thread per call.
//
// The synchronous MarketConnector::Get burns a thread for every in-flight
// call — each sleeps through its simulated network latency and its retry
// backoffs. That caps realistic concurrency at the thread count and, worse,
// makes high fan-out pay thread-creation and context-switch costs that a
// real async HTTP client would not. The CallScheduler drives the exact same
// CallTask phase machine (BeginCall -> BeginAttempt -> CompleteAttempt),
// but turns every delay the phases return into a timer on a min-heap. One
// loop thread pops due timers in batches — one lock hold drains everything
// due, then the phases run outside the lock — so a single worker overlaps
// arbitrarily many call latencies.
//
// Billing stays byte-identical to the synchronous MarketConnector::Get
// (which the executor uses for single calls and a window of 1): every
// bill, retry statistic, breaker transition and listener notification
// happens inside the connector's phase methods, which both drivers share
// verbatim. The scheduler only decides WHEN a phase runs, never what it
// does.
//
// ExecuteBatch preserves the executor's merge contract: outcomes come back
// index-aligned with the submitted calls (completion order is irrelevant),
// and fail-fast cancellation is decided when a call would be ADMITTED into
// the in-flight window — exactly where the executor's serial loop stops
// after a failed call.
#ifndef PAYLESS_MARKET_CALL_SCHEDULER_H_
#define PAYLESS_MARKET_CALL_SCHEDULER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "market/data_market.h"

namespace payless::market {

class CallScheduler {
 public:
  /// One call of a batch. The pointed-at objects must outlive ExecuteBatch.
  struct Item {
    const RestCall* call = nullptr;
    Clock::time_point deadline = kNoDeadline;
    const CallObs* call_obs = nullptr;
  };

  /// `hooks` (all members optional) instruments the scheduler's internals:
  /// queue-depth / in-flight / timer-heap gauges, admission-wait histogram,
  /// and the coalescing-opportunity meter.
  explicit CallScheduler(MarketConnector* connector,
                         const SchedulerHooks& hooks = SchedulerHooks{});

  CallScheduler(const CallScheduler&) = delete;
  CallScheduler& operator=(const CallScheduler&) = delete;

  /// Stops the loop thread. Callers must not be inside ExecuteBatch.
  ~CallScheduler();

  /// Drives every item through the connector's call phases with at most
  /// `max_in_flight` calls outstanding at once, admitting strictly in item
  /// order. Blocks until the whole batch settled. Returns one outcome per
  /// item, index-aligned; nullopt means the item was cancelled before being
  /// issued (`cancel_on_error` and an earlier item failed) — it spent no
  /// money and saw no market state.
  ///
  /// Thread-safe: any number of threads may run batches concurrently; they
  /// share the loop thread and the timer heap.
  std::vector<std::optional<Result<CallResult>>> ExecuteBatch(
      const std::vector<Item>& items, size_t max_in_flight,
      bool cancel_on_error);

 private:
  enum class Phase { kBegin, kAttempt, kComplete };

  /// One ExecuteBatch in flight; lives on the caller's stack.
  struct Batch {
    std::vector<MarketConnector::CallTask> tasks;
    std::vector<std::optional<Result<CallResult>>> outcomes;
    size_t next = 0;       // next item index to admit
    size_t remaining = 0;  // items not yet finished or cancelled
    size_t in_flight = 0;
    size_t max_in_flight = 1;
    bool cancel_on_error = false;
    bool failed = false;  // a finished item failed; cancel the unadmitted
    Clock::time_point submitted{};  // admission-wait reference point
    /// Per-item call signatures (RestCall::ToString: table + conditions)
    /// for the coalescing meter; empty when the meter is off.
    std::vector<std::string> sigs;
    /// Item was admitted while an identical call was already in flight.
    std::vector<uint8_t> coalescable;
    std::condition_variable done;
  };

  struct Timer {
    Clock::time_point due;
    Batch* batch = nullptr;
    size_t index = 0;
    Phase phase = Phase::kAttempt;
  };
  struct TimerLater {
    bool operator()(const Timer& a, const Timer& b) const {
      return a.due > b.due;
    }
  };

  /// Runs phases for one task until it either arms a timer or finishes.
  void Drive(Batch* batch, size_t index, Phase phase);
  /// Claims admissible item indices under `mutex_` (cancelling instead of
  /// claiming once the batch failed); the caller starts them unlocked.
  void AdmitLocked(Batch* batch, std::vector<size_t>* to_start);
  void Arm(Batch* batch, size_t index, Phase phase, int64_t delay_micros);
  void FinishTask(Batch* batch, size_t index);
  void Loop();

  MarketConnector* const connector_;
  const SchedulerHooks hooks_;

  std::mutex mutex_;
  std::condition_variable loop_cv_;
  std::vector<Timer> timers_;  // min-heap on `due`
  /// Signature -> number of identical calls currently inside the in-flight
  /// window, across all batches (guarded by `mutex_`). Feeds the
  /// coalescing-opportunity meter; empty when the meter is off.
  std::map<std::string, int> inflight_sigs_;
  bool stop_ = false;
  std::thread loop_thread_;
};

}  // namespace payless::market

#endif  // PAYLESS_MARKET_CALL_SCHEDULER_H_

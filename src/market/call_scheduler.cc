#include "market/call_scheduler.h"

#include <algorithm>
#include <chrono>
#include <sstream>

namespace payless::market {

namespace {

int64_t MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::microseconds>(to - from)
      .count();
}

}  // namespace

CallScheduler::CallScheduler(MarketConnector* connector,
                             const SchedulerHooks& hooks)
    : connector_(connector), hooks_(hooks), loop_thread_([this] { Loop(); }) {}

CallScheduler::~CallScheduler() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  loop_cv_.notify_all();
  loop_thread_.join();
}

std::vector<std::optional<Result<CallResult>>> CallScheduler::ExecuteBatch(
    const std::vector<Item>& items, size_t max_in_flight,
    bool cancel_on_error) {
  Batch batch;
  batch.tasks.resize(items.size());
  batch.outcomes.resize(items.size());
  batch.remaining = items.size();
  batch.max_in_flight = std::max<size_t>(1, max_in_flight);
  batch.cancel_on_error = cancel_on_error;
  batch.submitted = Clock::now();
  for (size_t i = 0; i < items.size(); ++i) {
    batch.tasks[i].call = items[i].call;
    batch.tasks[i].deadline = items[i].deadline;
    batch.tasks[i].call_obs = items[i].call_obs;
  }
  const bool meter_coalescing = hooks_.coalescable_calls != nullptr ||
                                hooks_.coalescable_transactions != nullptr ||
                                hooks_.recorder != nullptr;
  if (meter_coalescing) {
    // Signatures rendered outside the lock: RestCall::ToString is the full
    // (table, conditions) identity, so equal strings are byte-identical
    // calls against the same dataset.
    batch.sigs.reserve(items.size());
    for (const Item& item : items) batch.sigs.push_back(item.call->ToString());
    batch.coalescable.assign(items.size(), 0);
  }
  if (hooks_.queue_depth != nullptr) {
    hooks_.queue_depth->Add(static_cast<int64_t>(items.size()));
  }

  std::vector<size_t> to_start;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    AdmitLocked(&batch, &to_start);
  }
  for (const size_t i : to_start) Drive(&batch, i, Phase::kBegin);

  {
    std::unique_lock<std::mutex> lock(mutex_);
    batch.done.wait(lock, [&batch] { return batch.remaining == 0; });
  }

  if (meter_coalescing) {
    int64_t coalescable_calls = 0;
    int64_t coalescable_transactions = 0;
    size_t cancelled = 0;
    for (size_t i = 0; i < batch.tasks.size(); ++i) {
      if (!batch.outcomes[i].has_value()) {
        ++cancelled;
        continue;
      }
      if (batch.coalescable[i] == 0 || !batch.outcomes[i]->ok()) continue;
      // This delivered call was byte-identical to one already in flight
      // when it was admitted: a dedup layer would have answered it from
      // the sibling's response and saved its transactions.
      ++coalescable_calls;
      coalescable_transactions += (*batch.outcomes[i])->transactions;
    }
    if (coalescable_calls > 0) {
      if (hooks_.coalescable_calls != nullptr) {
        hooks_.coalescable_calls->Add(coalescable_calls);
      }
      if (hooks_.coalescable_transactions != nullptr) {
        hooks_.coalescable_transactions->Add(coalescable_transactions);
      }
    }
    if (hooks_.recorder != nullptr && batch.tasks.size() > 1) {
      std::ostringstream os;
      os << "{\"kind\":\"scheduler_batch\",\"items\":" << batch.tasks.size()
         << ",\"window\":" << batch.max_in_flight
         << ",\"cancelled\":" << cancelled
         << ",\"coalescable_calls\":" << coalescable_calls
         << ",\"coalescable_transactions\":" << coalescable_transactions
         << ",\"wall_us\":" << MicrosBetween(batch.submitted, Clock::now())
         << "}";
      hooks_.recorder->Record(os.str());
    }
  }
  return std::move(batch.outcomes);
}

void CallScheduler::AdmitLocked(Batch* batch, std::vector<size_t>* to_start) {
  Clock::time_point now{};
  bool have_now = false;
  while (batch->next < batch->tasks.size() &&
         batch->in_flight < batch->max_in_flight) {
    const size_t i = batch->next++;
    if (batch->failed) {
      // Claim-time cancellation, mirroring the executor's serial loop: a
      // sibling's terminal failure stops money being spent on a batch that
      // can no longer deliver. outcomes[i] stays empty.
      --batch->remaining;
      if (hooks_.queue_depth != nullptr) hooks_.queue_depth->Add(-1);
      continue;
    }
    ++batch->in_flight;
    if (hooks_.queue_depth != nullptr) hooks_.queue_depth->Add(-1);
    if (hooks_.in_flight != nullptr) hooks_.in_flight->Add(1);
    const CallObs* call_obs = batch->tasks[i].call_obs;
    if (hooks_.admission_wait != nullptr ||
        (call_obs != nullptr && call_obs->stages != nullptr)) {
      if (!have_now) {
        now = Clock::now();
        have_now = true;
      }
      const int64_t wait_micros = MicrosBetween(batch->submitted, now);
      if (hooks_.admission_wait != nullptr) {
        hooks_.admission_wait->Record(wait_micros);
      }
      if (call_obs != nullptr && call_obs->stages != nullptr) {
        call_obs->stages->Add(obs::kStageAdmissionWait, wait_micros);
      }
    }
    if (!batch->sigs.empty()) {
      // Coalescing opportunity: is a byte-identical call already inside
      // the in-flight window (any batch, any thread) right now?
      int& identical = inflight_sigs_[batch->sigs[i]];
      batch->coalescable[i] = identical > 0 ? 1 : 0;
      ++identical;
    }
    to_start->push_back(i);
  }
}

void CallScheduler::Drive(Batch* batch, size_t index, Phase phase) {
  MarketConnector::CallTask* task = &batch->tasks[index];
  while (!task->done) {
    switch (phase) {
      case Phase::kBegin:
        connector_->BeginCall(task);
        phase = Phase::kAttempt;
        break;
      case Phase::kAttempt: {
        const int64_t delay = connector_->BeginAttempt(task);
        if (task->done) break;
        if (delay > 0) {
          Arm(batch, index, Phase::kComplete, delay);
          return;
        }
        phase = Phase::kComplete;
        break;
      }
      case Phase::kComplete: {
        const int64_t delay = connector_->CompleteAttempt(task);
        if (task->done) break;
        if (delay > 0) {
          Arm(batch, index, Phase::kAttempt, delay);
          return;
        }
        phase = Phase::kAttempt;
        break;
      }
    }
  }
  FinishTask(batch, index);
}

void CallScheduler::Arm(Batch* batch, size_t index, Phase phase,
                        int64_t delay_micros) {
  const Clock::time_point due =
      Clock::now() + std::chrono::microseconds(delay_micros);
  bool wake;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Waking the loop is only needed when this timer becomes the earliest;
    // otherwise its existing wait_until already covers us.
    wake = timers_.empty() || due < timers_.front().due;
    timers_.push_back(Timer{due, batch, index, phase});
    std::push_heap(timers_.begin(), timers_.end(), TimerLater{});
    if (hooks_.timer_heap != nullptr) {
      hooks_.timer_heap->Set(static_cast<int64_t>(timers_.size()));
    }
  }
  if (wake) loop_cv_.notify_one();
}

void CallScheduler::FinishTask(Batch* batch, size_t index) {
  std::vector<size_t> to_start;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    batch->outcomes[index] = std::move(batch->tasks[index].outcome);
    if (batch->cancel_on_error && !batch->outcomes[index]->ok()) {
      batch->failed = true;
    }
    if (!batch->sigs.empty()) {
      const auto it = inflight_sigs_.find(batch->sigs[index]);
      if (it != inflight_sigs_.end() && --it->second <= 0) {
        inflight_sigs_.erase(it);
      }
    }
    if (hooks_.in_flight != nullptr) hooks_.in_flight->Add(-1);
    --batch->in_flight;
    --batch->remaining;
    AdmitLocked(batch, &to_start);
    if (batch->remaining == 0) {
      // Notify under the lock: the waiter owns `batch`'s storage and may
      // destroy it the instant it observes remaining == 0.
      batch->done.notify_all();
    }
  }
  for (const size_t i : to_start) Drive(batch, i, Phase::kBegin);
}

void CallScheduler::Loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  std::vector<Timer> due;
  while (true) {
    const Clock::time_point now = Clock::now();
    due.clear();
    while (!timers_.empty() && timers_.front().due <= now) {
      std::pop_heap(timers_.begin(), timers_.end(), TimerLater{});
      due.push_back(timers_.back());
      timers_.pop_back();
    }
    if (!due.empty() && hooks_.timer_heap != nullptr) {
      hooks_.timer_heap->Set(static_cast<int64_t>(timers_.size()));
    }
    if (!due.empty()) {
      // Batched completion: everything due under one lock hold, phases run
      // outside the lock so Arm/FinishTask can re-enter it.
      lock.unlock();
      for (const Timer& timer : due) {
        Drive(timer.batch, timer.index, timer.phase);
      }
      lock.lock();
      continue;
    }
    if (stop_) break;
    if (timers_.empty()) {
      loop_cv_.wait(lock);
    } else {
      // By value: wait_until reads the deadline again after waking, and an
      // Arm during the wait may reallocate `timers_`.
      const Clock::time_point next_due = timers_.front().due;
      loop_cv_.wait_until(lock, next_due);
    }
  }
}

}  // namespace payless::market

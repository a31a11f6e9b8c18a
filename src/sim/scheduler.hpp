// Discrete-event scheduler: the heart of the simulation kernel.
//
// Events are closures scheduled at absolute simulation times. Ties are broken
// by insertion order (FIFO among equal-time events) so runs are deterministic.
// Periodic events reschedule themselves until cancelled. Cancellation is via
// cheap handles that remain valid after the event fires (cancelling a fired
// event is a no-op).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_set>
#include <vector>

#include "base/types.hpp"

namespace platoon::sim {

/// Opaque handle identifying a scheduled event; default-constructed handles
/// refer to no event.
class EventHandle {
public:
    EventHandle() = default;

    [[nodiscard]] bool valid() const { return seq_ != 0; }

private:
    friend class Scheduler;
    explicit EventHandle(std::uint64_t seq) : seq_(seq) {}
    std::uint64_t seq_ = 0;
};

class Scheduler {
public:
    using Action = std::function<void()>;

    Scheduler() = default;
    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

    /// Current simulation time (seconds).
    [[nodiscard]] SimTime now() const { return now_; }

    /// Schedules `action` at absolute time `at` (must be >= now()).
    EventHandle schedule_at(SimTime at, Action action);

    /// Schedules `action` after `delay` seconds (delay >= 0).
    EventHandle schedule_in(SimTime delay, Action action);

    /// Schedules `action` every `period` seconds, first firing at
    /// `first` (absolute). The action keeps firing until cancelled.
    EventHandle schedule_every(SimTime first, SimTime period, Action action);

    /// Cancels a pending event. No-op if already fired or never scheduled.
    void cancel(EventHandle h);

    /// Runs events until the queue is empty or simulation time would exceed
    /// `until`; on normal completion time is advanced to `until`. Returns the
    /// number of events executed. If request_stop() was called from inside an
    /// event, returns immediately after that event without advancing time.
    std::uint64_t run_until(SimTime until);

    /// Executes exactly one event if any is pending; returns false otherwise.
    bool step();

    /// Number of distinct scheduled (not yet fired/cancelled) events;
    /// a periodic event counts as one.
    [[nodiscard]] std::size_t pending() const { return live_.size(); }
    [[nodiscard]] std::uint64_t executed() const { return executed_; }

    /// Requests that run_until returns after the current event completes.
    void request_stop() { stop_requested_ = true; }

private:
    struct Entry {
        SimTime at;
        std::uint64_t seq;  // insertion order; also identity
        SimTime period;     // 0 => one-shot
        std::shared_ptr<Action> action;

        // Min-heap by (time, seq).
        friend bool operator>(const Entry& a, const Entry& b) {
            if (a.at != b.at) return a.at > b.at;
            return a.seq > b.seq;
        }
    };

    /// Pops the next non-cancelled entry; false if none.
    bool pop_next(Entry& out);

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
    std::unordered_set<std::uint64_t> live_;
    SimTime now_ = 0.0;
    std::uint64_t next_seq_ = 1;
    std::uint64_t executed_ = 0;
    bool stop_requested_ = false;
};

}  // namespace platoon::sim

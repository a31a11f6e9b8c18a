// Gilbert-Elliott two-state burst-loss channel: Good/Bad states with
// exponentially distributed sojourn times and a per-delivery loss
// probability in each state. The chain advances lazily to the query time;
// queries arrive in deterministic event order with monotonic timestamps
// (net::Network delivery), so the sampled state sequence is bit-identical
// for a given master seed at any job count.
#pragma once

#include <cstdint>
#include <string_view>

#include "fault/plan.hpp"
#include "sim/random.hpp"
#include "base/types.hpp"

namespace platoon::fault {

class GilbertElliott {
public:
    /// `stream_name` scopes the process's RandomStream (one independent
    /// stream per configured burst-loss entry).
    GilbertElliott(BurstLossParams params, std::uint64_t master_seed,
                   std::string_view stream_name);

    /// Advances the chain to `t` and draws one loss decision for a delivery
    /// at that instant. Always false outside [start_s, end_s].
    [[nodiscard]] bool should_drop(sim::SimTime t);

    /// Advances the chain to `t` and reports the state (tests/diagnostics).
    [[nodiscard]] bool bad_at(sim::SimTime t);

    [[nodiscard]] const BurstLossParams& params() const { return params_; }

private:
    void advance_to(sim::SimTime t);

    BurstLossParams params_;
    sim::RandomStream rng_;
    bool bad_ = false;
    sim::SimTime next_transition_;
};

}  // namespace platoon::fault

#include "fault/injector.hpp"

#include <string>

#include "obs/counters.hpp"
#include "base/assert.hpp"

namespace platoon::fault {

namespace {
obs::Counter g_burst_drops{"fault.burst.drops"};
obs::Counter g_crashes{"fault.node.crashes"};
obs::Counter g_recoveries{"fault.node.recoveries"};
obs::Counter g_sensor_dropouts{"fault.sensor.dropouts"};
obs::Counter g_clock_skews{"fault.clock.skews"};
}  // namespace

Injector::Injector(sim::Scheduler& scheduler, net::Network& network,
                   FaultPlan plan, std::vector<VehicleHooks> hooks,
                   std::uint64_t master_seed)
    : scheduler_(scheduler),
      network_(network),
      plan_(std::move(plan)),
      hooks_(std::move(hooks)) {
    for (std::size_t i = 0; i < plan_.burst_loss.size(); ++i) {
        channels_.push_back(std::make_unique<GilbertElliott>(
            plan_.burst_loss[i], master_seed,
            "fault.burstloss." + std::to_string(i)));
    }
    arm();
}

Injector::~Injector() { network_.set_fault_loss(nullptr); }

void Injector::arm() {
    if (!channels_.empty()) {
        network_.set_fault_loss([this](sim::NodeId /*from*/, sim::NodeId /*to*/,
                                       net::Band band, sim::SimTime now) {
            // One shared process per entry: burst loss is an environment
            // condition (rain fade, an underpass), so every link on the band
            // sees the same Good/Bad episode, correlated in time.
            for (auto& channel : channels_) {
                if (channel->params().band != band) continue;
                if (channel->should_drop(now)) {
                    ++stats_.burst_drops;
                    g_burst_drops.inc();
                    return true;
                }
            }
            return false;
        });
    }

    for (const NodeCrashParams& crash : plan_.crashes) {
        PLATOON_EXPECTS(crash.vehicle_index < hooks_.size());
        PLATOON_EXPECTS(crash.down_s > 0.0);
        const std::size_t idx = crash.vehicle_index;
        if (!hooks_[idx].set_comms_down) continue;
        scheduler_.schedule_at(crash.at_s, [this, idx] {
            hooks_[idx].set_comms_down(true);
            ++stats_.crashes;
            g_crashes.inc();
        });
        scheduler_.schedule_at(crash.at_s + crash.down_s, [this, idx] {
            hooks_[idx].set_comms_down(false);
            ++stats_.recoveries;
            g_recoveries.inc();
        });
    }

    for (const SensorDropoutParams& dropout : plan_.sensor_dropouts) {
        PLATOON_EXPECTS(dropout.vehicle_index < hooks_.size());
        PLATOON_EXPECTS(dropout.duration_s > 0.0);
        const std::size_t idx = dropout.vehicle_index;
        if (!hooks_[idx].set_sensor_dropout) continue;
        scheduler_.schedule_at(dropout.start_s, [this, idx] {
            hooks_[idx].set_sensor_dropout(true);
            ++stats_.sensor_dropouts;
            g_sensor_dropouts.inc();
        });
        scheduler_.schedule_at(dropout.start_s + dropout.duration_s,
                               [this, idx] {
                                   hooks_[idx].set_sensor_dropout(false);
                               });
    }

    for (const ClockDriftParams& drift : plan_.clock_drifts) {
        PLATOON_EXPECTS(drift.vehicle_index < hooks_.size());
        const std::size_t idx = drift.vehicle_index;
        if (!hooks_[idx].set_clock_skew) continue;
        scheduler_.schedule_at(
            drift.start_s, [this, idx, anchor = drift.start_s,
                            offset = drift.offset_s, rate = drift.drift_s_per_s] {
                hooks_[idx].set_clock_skew(anchor, offset, rate);
                ++stats_.clock_skews;
                g_clock_skews.inc();
            });
    }
}

}  // namespace platoon::fault

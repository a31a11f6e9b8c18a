#include "core/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "base/assert.hpp"

namespace platoon::core {

double population_stddev(const std::vector<double>& values) {
    const std::size_t n = values.size();
    if (n < 2) return 0.0;
    double sum = 0.0;
    for (const double v : values) sum += v;
    const double mean = sum / static_cast<double>(n);
    double sq_dev = 0.0;
    for (const double v : values) sq_dev += (v - mean) * (v - mean);
    return std::sqrt(sq_dev / static_cast<double>(n));
}

std::map<std::string, double> MetricsSummary::as_map() const {
    return {
        {"spacing_rms_m", spacing_rms_m},
        {"spacing_max_abs_m", spacing_max_abs_m},
        {"min_gap_m", min_gap_m},
        {"has_gap_samples", has_gap_samples ? 1.0 : 0.0},
        {"collisions", static_cast<double>(collisions)},
        {"follower_speed_stddev", follower_speed_stddev},
        {"max_abs_accel", max_abs_accel},
        {"cacc_availability", cacc_availability},
        {"fuel_l_per_100km", fuel_l_per_100km},
        {"pdr", pdr},
        {"frames_sent", static_cast<double>(frames_sent)},
        {"rejected_auth", static_cast<double>(rejected_auth)},
        {"rejected_replay", static_cast<double>(rejected_replay)},
        {"vpd_detections", static_cast<double>(vpd_detections)},
        {"self_echoes", static_cast<double>(self_echoes)},
    };
}

void PlatoonMetrics::sample(sim::SimTime now) {
    if (vehicles_.size() < 2) return;

    // Sort by ground truth position (front of platoon first).
    std::vector<const PlatoonVehicle*> ordered = vehicles_;
    std::sort(ordered.begin(), ordered.end(),
              [](const PlatoonVehicle* a, const PlatoonVehicle* b) {
                  return a->dynamics().position() > b->dynamics().position();
              });

    bool any_collision = false;
    for (std::size_t i = 1; i < ordered.size(); ++i) {
        // Only score pairs sharing a lane (a left vehicle opens its slot).
        if (ordered[i]->lane() != ordered[i - 1]->lane()) continue;
        const double gap = ordered[i - 1]->dynamics().position() -
                           ordered[i - 1]->dynamics().length() -
                           ordered[i]->dynamics().position();
        const std::string pair_name =
            "gap." + std::to_string(ordered[i]->id().value);
        traces_.series(pair_name).record(now, gap);
        traces_.series("gap_error." + std::to_string(ordered[i]->id().value))
            .record(now, gap - params_.desired_gap_m);
        if (gap < params_.collision_gap_m) any_collision = true;
    }
    if (any_collision && !in_collision_) ++collisions_;
    in_collision_ = any_collision;

    for (std::size_t i = 0; i < ordered.size(); ++i) {
        const auto* v = ordered[i];
        traces_.series("speed." + std::to_string(v->id().value))
            .record(now, v->dynamics().speed());
        traces_.series("accel." + std::to_string(v->id().value))
            .record(now, v->dynamics().accel());
    }
}

MetricsSummary PlatoonMetrics::summarize(
    const net::NetworkStats& network_stats) const {
    MetricsSummary out;
    out.collisions = collisions_;
    out.pdr = network_stats.pdr();
    out.frames_sent = network_stats.sent;

    const double warmup = params_.warmup_s;
    double sq_sum = 0.0;
    std::size_t n = 0;
    double min_gap = 1e18;

    for (const auto* v : vehicles_) {
        const auto* err =
            traces_.find("gap_error." + std::to_string(v->id().value));
        if (err != nullptr && !err->empty()) {
            for (std::size_t i = 0; i < err->size(); ++i) {
                if (err->times()[i] < warmup) continue;
                sq_sum += err->values()[i] * err->values()[i];
                ++n;
                out.spacing_max_abs_m =
                    std::max(out.spacing_max_abs_m, std::abs(err->values()[i]));
            }
        }
        const auto* gap = traces_.find("gap." + std::to_string(v->id().value));
        if (gap != nullptr && !gap->empty()) {
            for (std::size_t i = 0; i < gap->size(); ++i) {
                if (gap->times()[i] < warmup) continue;
                min_gap = std::min(min_gap, gap->values()[i]);
            }
        }
        const auto* accel =
            traces_.find("accel." + std::to_string(v->id().value));
        if (accel != nullptr && !accel->empty()) {
            out.max_abs_accel =
                std::max(out.max_abs_accel, accel->max_abs_after(warmup));
        }
    }
    out.spacing_rms_m = n > 0 ? std::sqrt(sq_sum / static_cast<double>(n)) : 0.0;
    out.has_gap_samples = min_gap <= 1e17;
    out.min_gap_m = out.has_gap_samples
                        ? min_gap
                        : std::numeric_limits<double>::quiet_NaN();

    // Follower speed oscillation: pooled stddev across followers.
    std::vector<double> follower_speeds;
    bool first = true;
    double fuel_sum = 0.0;
    std::size_t fuel_n = 0;
    double avail_sum = 0.0;
    std::size_t avail_n = 0;

    for (const auto* v : vehicles_) {
        if (first) {
            first = false;  // skip the leader for follower stats
            continue;
        }
        const auto* speed =
            traces_.find("speed." + std::to_string(v->id().value));
        if (speed != nullptr) {
            for (std::size_t i = 0; i < speed->size(); ++i) {
                if (speed->times()[i] < warmup) continue;
                follower_speeds.push_back(speed->values()[i]);
            }
        }
        fuel_sum += v->fuel().litres_per_100km();
        ++fuel_n;
        avail_sum += v->stack().cacc_availability();
        ++avail_n;

        out.rejected_auth += v->counters().rejected_total();
        out.rejected_replay += v->counters().rejected_replay;
        out.vpd_detections += v->vpd().detections();
        out.self_echoes = std::max(
            out.self_echoes,
            static_cast<std::uint64_t>(v->impersonation_self_echoes()));
    }
    out.follower_speed_stddev = population_stddev(follower_speeds);
    if (fuel_n > 0) out.fuel_l_per_100km = fuel_sum / static_cast<double>(fuel_n);
    if (avail_n > 0) out.cacc_availability = avail_sum / static_cast<double>(avail_n);
    return out;
}

}  // namespace platoon::core

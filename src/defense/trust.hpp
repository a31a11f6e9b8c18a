// Trust management (paper open challenge VI-B.3; REPLACE [6] family).
//
// Each vehicle keeps a per-peer trust score fed by the evidence the other
// defenses already produce: consistent beacons slowly build trust,
// plausibility violations and VPD-ADA detections burn it. Below a threshold
// the peer is distrusted and its claims are ignored entirely -- which lets
// the platoon *surgically* exclude a lying identity (Sybil ghost, FDI
// insider) and keep full CACC on everyone else, instead of the blanket
// beacon-quarantine fallback. Hysteresis prevents flapping; scores recover
// slowly so a burned peer must re-earn trust.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "base/types.hpp"

namespace platoon::security {

class TrustManager {
public:
    struct Params {
        double initial = 0.5;
        double reward = 0.004;        ///< Per consistent beacon (10 Hz).
        double penalty = 0.12;        ///< Per piece of misbehaviour evidence.
        double distrust_below = 0.2;  ///< Scores under this are distrusted.
        double redeem_above = 0.4;    ///< ...until they recover past this.
        /// Recovery credit per *dropped* beacon from a distrusted peer (a
        /// time proxy: a persistent offender is re-penalised immediately on
        /// redemption, an honest false positive works its way back in).
        double drop_recovery = 0.0015;
    };

    TrustManager();
    explicit TrustManager(Params params) : params_(params) {}

    /// Consistent evidence from `peer` (a beacon that matched predictions).
    void reward(std::uint32_t peer);
    /// Misbehaviour evidence against `peer`.
    void penalize(std::uint32_t peer);
    /// A beacon from a distrusted peer was dropped (slow redemption path).
    void observe_dropped(std::uint32_t peer);

    /// Current score (initial value for unknown peers).
    [[nodiscard]] double score(std::uint32_t peer) const;
    /// Whether the peer's claims should be used (hysteresis applied).
    [[nodiscard]] bool trusted(std::uint32_t peer) const;

    [[nodiscard]] std::size_t distrusted_count() const;
    [[nodiscard]] std::uint64_t penalties() const { return penalties_; }
    [[nodiscard]] const Params& params() const { return params_; }

private:
    struct Entry {
        double score;
        bool distrusted = false;
    };
    Entry& entry(std::uint32_t peer);

    Params params_;
    mutable std::unordered_map<std::uint32_t, Entry> entries_;
    std::uint64_t penalties_ = 0;
};

}  // namespace platoon::security

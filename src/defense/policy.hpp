// Per-vehicle security configuration: which of the paper's Table III
// mechanisms are switched on. The scenario builder provisions key material
// (group keys, pairwise fading keys, PKI credentials) accordingly.
#pragma once

#include "crypto/secured_message.hpp"
#include "net/channel.hpp"
#include "base/types.hpp"

namespace platoon::security {

/// How symmetric key material reaches the platoon members.
enum class KeyEstablishment : std::uint8_t {
    kPreShared = 0,    ///< Provisioned out of band before the run.
    kFadingChannel,    ///< Agreed via channel-fading randomness [5], [9].
    kRsuDistribution,  ///< Fetched from an RSU over ECDH (Section VI-A.2).
};

struct SecurityPolicy {
    /// --- Secret & public keys (Table III row 1) ---------------------------
    crypto::AuthMode auth_mode = crypto::AuthMode::kNone;
    KeyEstablishment key_establishment = KeyEstablishment::kPreShared;
    bool encrypt_payloads = false;
    sim::SimTime freshness_window_s = 0.5;
    bool check_replay = true;
    /// Rotate pseudonymous certificates every this many seconds (0 = never);
    /// only meaningful with AuthMode::kSignature.
    sim::SimTime pseudonym_rotation_s = 0.0;

    /// --- Control-algorithm detection (Table III row 3) --------------------
    bool vpd_ada = false;
    /// Trust management (open challenge VI-B.3, REPLACE [6] family): keep a
    /// per-peer trust score from the other detectors' evidence and ignore
    /// distrusted identities surgically. Most useful stacked on vpd_ada.
    bool trust_management = false;

    /// --- Hybrid communication (Table III row 4) ---------------------------
    bool hybrid_comms = false;
    net::Band secondary_band = net::Band::kVlc;
    bool require_dual_channel_maneuvers = true;

    /// --- Onboard systems security (Table III row 5) -----------------------
    bool sensor_fusion = false;
    bool firewall = false;
    bool antivirus = false;

    /// --- RSU cooperation (Table III row 2) ---------------------------------
    bool report_misbehavior = false;  ///< Send reports to RSUs.
    /// Only accept key-management messages (CRLs, group keys) from holders
    /// of TA-issued credentials. Turning this off models the legacy /
    /// misconfigured deployments that make rogue RSUs (open challenge,
    /// Section VI-A.2) effective.
    bool require_signed_infrastructure = true;
    /// Leader-side join rate limiting (DoS hardening).
    sim::SimTime join_rate_limit_s = 0.0;

    [[nodiscard]] static SecurityPolicy open() { return {}; }

    /// Everything on: the full defended stack used in Table III benches.
    [[nodiscard]] static SecurityPolicy hardened() {
        SecurityPolicy p;
        p.auth_mode = crypto::AuthMode::kSignature;
        p.encrypt_payloads = true;
        p.vpd_ada = true;
        p.hybrid_comms = true;
        p.sensor_fusion = true;
        p.firewall = true;
        p.antivirus = true;
        p.report_misbehavior = true;
        p.join_rate_limit_s = 1.0;
        return p;
    }
};

/// Counters every vehicle keeps about its security pipeline.
struct SecurityCounters {
    std::uint64_t accepted = 0;
    std::uint64_t rejected_bad_tag = 0;
    std::uint64_t rejected_replay = 0;
    std::uint64_t rejected_stale = 0;
    std::uint64_t rejected_cert = 0;
    std::uint64_t rejected_revoked = 0;
    std::uint64_t rejected_unprotected = 0;
    std::uint64_t rejected_no_key = 0;
    std::uint64_t rejected_malformed = 0;

    void count(crypto::VerifyResult r);
    [[nodiscard]] std::uint64_t rejected_total() const;
};

}  // namespace platoon::security

// Trusted authority: vehicle registration, credential issuance (long-term +
// pseudonym pools), misbehaviour adjudication and revocation.
//
// The TA is infrastructure: RSUs talk to it over a wired backhaul (modelled
// as direct calls), vehicles only ever see its public key and the CRL
// updates RSUs broadcast (paper Section VI-A.2).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "crypto/cert.hpp"
#include "base/types.hpp"

namespace platoon::rsu {

class TrustedAuthority {
public:
    struct Params {
        /// Distinct reporters required before a subject is revoked. Three,
        /// so that isolated detector false positives (one vehicle blaming
        /// its predecessor during a transient) cannot cascade into
        /// revoking honest members.
        std::size_t reports_to_revoke = 3;
        sim::SimTime cert_lifetime_s = 86400.0;
        std::size_t pseudonyms_per_vehicle = 12;
    };

    explicit TrustedAuthority(crypto::BytesView seed);
    TrustedAuthority(crypto::BytesView seed, Params params);

    [[nodiscard]] const crypto::Bytes& public_key() const {
        return ca_.public_key();
    }

    /// Registers a vehicle: generates its key pair deterministically from
    /// the TA seed + id and issues a long-term credential plus a pseudonym
    /// pool. (Real systems generate keys on the vehicle; determinism keeps
    /// scenarios reproducible.)
    struct Enrollment {
        crypto::Credential long_term;
        crypto::PseudonymPool pseudonyms;
    };
    Enrollment enroll(sim::NodeId vehicle, sim::SimTime now);

    /// A misbehaviour report about the on-wire identity `subject` from
    /// `reporter`. Once enough distinct reporters agree, the TA revokes the
    /// *credential(s) issued under that identity* -- not the whole vehicle:
    /// the usual case is a victim reporting its own stolen credential, and
    /// its remaining pseudonyms must survive. Returns true on revocation.
    bool report_misbehavior(sim::NodeId reporter, sim::NodeId subject,
                            sim::SimTime now);

    /// Revokes the certificates issued under one on-wire identity.
    void revoke_credential(sim::NodeId wire_id);
    [[nodiscard]] std::size_t revoked_credentials() const {
        return revoked_credentials_;
    }

    /// Immediately revokes every certificate issued to `subject`. Accepts
    /// either the enrolled vehicle id or any of its pseudonym on-wire ids.
    void revoke_subject(sim::NodeId subject);

    /// Pseudonym on-wire id for (vehicle, index>=1); index 0 = the vehicle
    /// id itself. Pseudonym certificates are issued under these ids so that
    /// beacons signed with them do not reveal the enrolled identity.
    [[nodiscard]] static sim::NodeId pseudonym_wire_id(sim::NodeId vehicle,
                                                       std::uint64_t index);

    /// Maps an on-wire identity back to the enrolled vehicle (TA escrow).
    [[nodiscard]] sim::NodeId resolve_identity(sim::NodeId wire_id) const;

    [[nodiscard]] bool is_revoked_subject(sim::NodeId subject) const;
    [[nodiscard]] const crypto::RevocationList& crl() const {
        return ca_.crl();
    }
    [[nodiscard]] std::size_t revoked_subjects() const {
        return revoked_subjects_.size();
    }
    [[nodiscard]] std::uint64_t reports_received() const { return reports_; }

    /// One adjudication event: the moment enough distinct reporters agreed
    /// and the TA moved against an on-wire identity (credential revocation
    /// when one was issued; blacklisting for never-enrolled ghost ids).
    struct Isolation {
        sim::NodeId subject;
        sim::SimTime at = 0.0;
    };
    /// Adjudications in report order (detection benchmarks read
    /// time-to-isolation off this log).
    [[nodiscard]] const std::vector<Isolation>& isolations() const {
        return isolations_;
    }

private:
    crypto::CertificateAuthority ca_;
    Params params_;
    crypto::Bytes seed_;
    /// serials issued per subject (for subject-level revocation).
    std::unordered_map<sim::NodeId, std::vector<std::uint64_t>> issued_;
    std::unordered_map<sim::NodeId, std::vector<sim::NodeId>> reporters_;
    std::unordered_map<sim::NodeId, sim::NodeId> wire_to_vehicle_;
    std::unordered_map<sim::NodeId, std::vector<std::uint64_t>> wire_serials_;
    std::size_t revoked_credentials_ = 0;
    std::vector<sim::NodeId> revoked_subjects_;
    std::vector<Isolation> isolations_;
    std::uint64_t reports_ = 0;
};

}  // namespace platoon::rsu

#include "rsu/trusted_authority.hpp"

#include <algorithm>

#include "crypto/sha256.hpp"
#include "base/assert.hpp"

namespace platoon::rsu {

TrustedAuthority::TrustedAuthority(crypto::BytesView seed)
    : TrustedAuthority(seed, Params{}) {}

TrustedAuthority::TrustedAuthority(crypto::BytesView seed, Params params)
    : ca_(seed), params_(params), seed_(seed.begin(), seed.end()) {}

TrustedAuthority::Enrollment TrustedAuthority::enroll(sim::NodeId vehicle,
                                                      sim::SimTime now) {
    PLATOON_EXPECTS(vehicle.valid());
    Enrollment out;

    const auto make_credential = [&](std::uint64_t pseudonym_id) {
        crypto::Bytes key_seed = seed_;
        crypto::append_u32(key_seed, vehicle.value);
        crypto::append_u64(key_seed, pseudonym_id);
        const auto digest = crypto::Sha256::hash(crypto::BytesView(key_seed));
        crypto::Credential cred;
        cred.key = crypto::KeyPair::from_seed(
            crypto::BytesView(digest.data(), digest.size()));
        const sim::NodeId wire_id = pseudonym_wire_id(vehicle, pseudonym_id);
        cred.cert = ca_.issue(wire_id, pseudonym_id,
                              crypto::BytesView(cred.key.public_bytes), now,
                              now + params_.cert_lifetime_s);
        issued_[vehicle].push_back(cred.cert.serial);
        wire_serials_[wire_id].push_back(cred.cert.serial);
        wire_to_vehicle_[wire_id] = vehicle;
        return cred;
    };

    out.long_term = make_credential(0);
    for (std::size_t i = 1; i <= params_.pseudonyms_per_vehicle; ++i)
        out.pseudonyms.add(make_credential(i));
    return out;
}

bool TrustedAuthority::report_misbehavior(sim::NodeId reporter,
                                          sim::NodeId subject,
                                          sim::SimTime now) {
    ++reports_;
    auto& who = reporters_[subject];
    if (std::find(who.begin(), who.end(), reporter) == who.end())
        who.push_back(reporter);
    // Log the adjudication the moment the reporter quorum is first reached
    // (== comparison: later reports against an already-adjudicated subject
    // are not new isolation events).
    if (who.size() == params_.reports_to_revoke)
        isolations_.push_back({subject, now});
    if (who.size() >= params_.reports_to_revoke) {
        const auto it = wire_serials_.find(subject);
        const bool fresh =
            it != wire_serials_.end() &&
            std::any_of(it->second.begin(), it->second.end(),
                        [this](std::uint64_t s) {
                            return !ca_.crl().is_revoked(s);
                        });
        revoke_credential(subject);
        return fresh;
    }
    return false;
}

void TrustedAuthority::revoke_credential(sim::NodeId wire_id) {
    const auto it = wire_serials_.find(wire_id);
    if (it == wire_serials_.end()) return;
    bool any = false;
    for (const std::uint64_t serial : it->second) {
        if (!ca_.crl().is_revoked(serial)) {
            ca_.revoke(serial);
            any = true;
        }
    }
    if (any) ++revoked_credentials_;
}

sim::NodeId TrustedAuthority::pseudonym_wire_id(sim::NodeId vehicle,
                                                std::uint64_t index) {
    if (index == 0) return vehicle;
    return sim::NodeId{0x50000000u + vehicle.value * 16u +
                       static_cast<std::uint32_t>(index)};
}

sim::NodeId TrustedAuthority::resolve_identity(sim::NodeId wire_id) const {
    const auto it = wire_to_vehicle_.find(wire_id);
    return it == wire_to_vehicle_.end() ? wire_id : it->second;
}

void TrustedAuthority::revoke_subject(sim::NodeId subject) {
    subject = resolve_identity(subject);
    if (is_revoked_subject(subject)) return;
    revoked_subjects_.push_back(subject);
    const auto it = issued_.find(subject);
    if (it != issued_.end()) {
        for (const std::uint64_t serial : it->second) ca_.revoke(serial);
    }
}

bool TrustedAuthority::is_revoked_subject(sim::NodeId subject) const {
    const sim::NodeId vehicle = resolve_identity(subject);
    return std::find(revoked_subjects_.begin(), revoked_subjects_.end(),
                     vehicle) != revoked_subjects_.end();
}

}  // namespace platoon::rsu

#include "crypto/secured_message.hpp"

#include <cmath>

#include "crypto/sha256.hpp"
#include "base/assert.hpp"
#include "obs/counters.hpp"
#include "obs/timer.hpp"

namespace platoon::crypto {

namespace {
obs::Counter g_protect_ops{"crypto.protect"};
obs::Counter g_sign_ops{"crypto.sign"};
obs::Counter g_sig_verifies{"crypto.sig_verifies"};
obs::Counter g_verify_ok{"crypto.verify.ok"};
obs::Counter g_verify_fail{"crypto.verify.fail"};
/// kOk verdicts served entirely from the shared VerdictCache (every
/// consulted fact was a hit, zero fresh crypto this call). Invariant:
/// crypto.verify.ok + crypto.verify.cached equals what crypto.verify.ok
/// was before memoization existed.
obs::Counter g_verify_cached{"crypto.verify.cached"};
/// Always 0: kept registered only because perfbench/run.py reads the key.
obs::Counter g_verify_batched{"crypto.verify.batched"};

using FactKey = VerdictCache::Key;

/// SHA-256 of the envelope's canonical authenticated bytes.
Sha256::Digest authenticated_digest(const Envelope& envelope) {
    Sha256 h;
    const Bytes ab = envelope.authenticated_bytes();
    h.update(BytesView(ab));
    return h.finish();
}

/// Fact: "this tag is a valid MAC over these bytes under this key". Keyed
/// on the key's digest, never the key itself.
FactKey mac_fact_key(BytesView key_digest, const Envelope& envelope) {
    Sha256 h;
    h.update(std::string_view("platoonsec.vc.mac.v1"));
    h.update(key_digest);
    const auto ad = authenticated_digest(envelope);
    h.update(BytesView(ad.data(), ad.size()));
    h.update(BytesView(envelope.tag));
    return h.finish();
}

/// Fact: "this tag is a valid signature over these bytes under this key".
FactKey sig_fact_key(BytesView signer_public_key, const Envelope& envelope) {
    Sha256 h;
    h.update(std::string_view("platoonsec.vc.sig.v1"));
    h.update(signer_public_key);
    const auto ad = authenticated_digest(envelope);
    h.update(BytesView(ad.data(), ad.size()));
    h.update(BytesView(envelope.tag));
    return h.finish();
}

/// Fact: "this certificate's CA signature verifies under this CA key".
/// Time-window and CRL status are deliberately NOT part of the fact -- they
/// depend on `now` and the receiver's CRL and are always checked fresh.
FactKey cert_fact_key(BytesView ca_public_key, const Certificate& cert) {
    Sha256 h;
    h.update(std::string_view("platoonsec.vc.cert.v1"));
    h.update(ca_public_key);
    const Bytes tbs = cert.tbs();
    h.update(BytesView(tbs));
    h.update(BytesView(cert.ca_signature));
    return h.finish();
}

}  // namespace

const char* to_string(VerifyResult r) {
    switch (r) {
        case VerifyResult::kOk: return "ok";
        case VerifyResult::kUnprotected: return "unprotected";
        case VerifyResult::kBadTag: return "bad-tag";
        case VerifyResult::kBadCert: return "bad-cert";
        case VerifyResult::kRevoked: return "revoked";
        case VerifyResult::kStale: return "stale";
        case VerifyResult::kReplay: return "replay";
        case VerifyResult::kNoKey: return "no-key";
    }
    return "?";
}

Bytes Envelope::authenticated_bytes() const {
    Bytes out;
    append(out, to_bytes("platoonsec.env.v1"));
    out.push_back(static_cast<std::uint8_t>(mode));
    out.push_back(encrypted ? 1 : 0);
    append_u32(out, sender);
    append_u64(out, seq);
    append_f64(out, timestamp);
    append_u64(out, payload.size());
    append(out, payload);
    return out;
}

std::size_t Envelope::wire_size() const {
    // Header (sender, seq, timestamp, flags) + payload + tag + certificate.
    std::size_t size = 4 + 8 + 8 + 2 + payload.size() + tag.size();
    if (cert) size += 64 /*key*/ + 96 /*sig*/ + 28 /*fields*/;
    return size;
}

VerifyResult ReplayGuard::check(std::uint32_t sender, std::uint64_t seq,
                                sim::SimTime timestamp, sim::SimTime now) {
    if (std::abs(now - timestamp) > window_) return VerifyResult::kStale;
    auto [it, inserted] = last_seq_.try_emplace(sender, seq);
    if (!inserted) {
        if (seq <= it->second) return VerifyResult::kReplay;
        it->second = seq;
    }
    return VerifyResult::kOk;
}

bool MessageProtection::cert_signature_valid(const Certificate& cert,
                                             CacheProbe& probe) const {
    if (cache_ != nullptr) {
        const FactKey key = cert_fact_key(BytesView(ca_public_key_), cert);
        ++probe.consulted;
        if (const auto hit = cache_->lookup(key)) {
            ++probe.hits;
            return *hit;
        }
        Signature sig{cert.ca_signature};
        g_sig_verifies.inc();
        const bool ok = verify(BytesView(ca_public_key_), cert.tbs(), sig);
        cache_->store(key, ok);
        return ok;
    }
    if (verified_cert_serials_.contains(cert.serial)) return true;
    Signature sig{cert.ca_signature};
    g_sig_verifies.inc();
    if (!verify(BytesView(ca_public_key_), cert.tbs(), sig)) return false;
    verified_cert_serials_.insert(cert.serial);
    return true;
}

const Bytes& MessageProtection::group_key_digest() const {
    if (group_key_digest_.empty() && !group_key_.empty()) {
        Sha256 h;
        h.update(std::string_view("platoonsec.vc.key.v1"));
        h.update(BytesView(group_key_));
        const auto d = h.finish();
        group_key_digest_.assign(d.begin(), d.end());
    }
    return group_key_digest_;
}

Bytes MessageProtection::mac_key_for(std::uint32_t peer) const {
    if (config_.mode == AuthMode::kGroupMac) {
        return hkdf(BytesView(group_key_), {}, "platoon.mac");
    }
    const auto it = pairwise_keys_.find(peer);
    if (it == pairwise_keys_.end()) return {};
    return hkdf(BytesView(it->second), {}, "platoon.mac");
}

Bytes MessageProtection::encryption_key() const {
    if (group_key_.empty()) return {};
    return hkdf(BytesView(group_key_), {}, "platoon.enc");
}

Bytes MessageProtection::nonce_for(std::uint32_t sender,
                                   std::uint64_t seq) const {
    Bytes nonce;
    append_u32(nonce, sender);
    append_u64(nonce, seq);
    PLATOON_ENSURES(nonce.size() == ChaCha20::kNonceSize);
    return nonce;
}

Envelope MessageProtection::protect(std::uint32_t sender, BytesView payload,
                                    sim::SimTime now,
                                    std::optional<std::uint32_t> receiver) {
    g_protect_ops.inc();
    Envelope env;
    env.mode = config_.mode;
    env.sender = sender;
    env.seq = next_seq_++;
    env.timestamp = now;
    env.payload = Bytes(payload.begin(), payload.end());

    if (config_.encrypt) {
        const Bytes key = encryption_key();
        if (!key.empty()) {
            ChaCha20 cipher(BytesView(key), BytesView(nonce_for(sender, env.seq)));
            cipher.apply(env.payload);
            env.encrypted = true;
        }
    }

    switch (config_.mode) {
        case AuthMode::kNone:
            break;
        case AuthMode::kGroupMac: {
            PLATOON_EXPECTS(!group_key_.empty());
            env.tag = hmac_tag(BytesView(mac_key_for(sender)),
                               BytesView(env.authenticated_bytes()));
            break;
        }
        case AuthMode::kPairwiseMac: {
            PLATOON_EXPECTS(receiver.has_value());
            const Bytes key = mac_key_for(*receiver);
            PLATOON_EXPECTS(!key.empty());
            env.tag = hmac_tag(BytesView(key),
                               BytesView(env.authenticated_bytes()));
            break;
        }
        case AuthMode::kSignature: {
            PLATOON_EXPECTS(credential_.has_value());
            g_sign_ops.inc();
            env.tag = sign(credential_->key, env.authenticated_bytes()).bytes;
            env.cert = credential_->cert;
            break;
        }
    }
    return env;
}

VerifyResult MessageProtection::verify_and_open(Envelope& envelope,
                                                sim::SimTime now) {
    // Nothing to check and nothing to decrypt: no crypto ran, so nothing is
    // timed or counted as crypto.verify.
    if (config_.mode == AuthMode::kNone && !envelope.encrypted)
        return VerifyResult::kOk;
    const obs::ScopedTimer timer("crypto.verify");
    CacheProbe probe;
    const VerifyResult result = verify_and_open_impl(envelope, now, probe);
    if (result == VerifyResult::kOk) {
        if (probe.consulted > 0 && probe.hits == probe.consulted) {
            g_verify_cached.inc();
        } else {
            g_verify_ok.inc();
        }
    } else {
        g_verify_fail.inc();
    }
    return result;
}

VerifyResult MessageProtection::verify_and_open_impl(Envelope& envelope,
                                                     sim::SimTime now,
                                                     CacheProbe& probe) {
    if (config_.mode != AuthMode::kNone) {
        // A signature is acceptable under any policy that demands
        // authentication (it is strictly stronger than a MAC) -- RSUs sign
        // even when the platoon runs on a group key. Everything else must
        // match the configured mode.
        if (envelope.mode != config_.mode &&
            envelope.mode != AuthMode::kSignature)
            return VerifyResult::kUnprotected;

        switch (envelope.mode) {
            case AuthMode::kNone:
                return VerifyResult::kUnprotected;
            case AuthMode::kGroupMac: {
                if (group_key_.empty()) return VerifyResult::kNoKey;
                const auto compute_tag_ok = [&] {
                    const Bytes expected =
                        hmac_tag(BytesView(mac_key_for(envelope.sender)),
                                 BytesView(envelope.authenticated_bytes()));
                    return ct_equal(BytesView(expected),
                                    BytesView(envelope.tag));
                };
                bool tag_ok;
                if (cache_ != nullptr) {
                    // Group-MAC validity is receiver-independent (same key
                    // for everyone); the fact binds the key digest so
                    // differently-keyed receivers cannot alias.
                    const FactKey key =
                        mac_fact_key(BytesView(group_key_digest()), envelope);
                    ++probe.consulted;
                    if (const auto hit = cache_->lookup(key)) {
                        ++probe.hits;
                        tag_ok = *hit;
                    } else {
                        tag_ok = compute_tag_ok();
                        cache_->store(key, tag_ok);
                    }
                } else {
                    tag_ok = compute_tag_ok();
                }
                if (!tag_ok) return VerifyResult::kBadTag;
                break;
            }
            case AuthMode::kPairwiseMac: {
                // Never cached: the key is per-(sender,receiver), so the
                // verdict is receiver-dependent by construction.
                const Bytes key = mac_key_for(envelope.sender);
                if (key.empty()) return VerifyResult::kNoKey;
                const Bytes expected = hmac_tag(
                    BytesView(key), BytesView(envelope.authenticated_bytes()));
                if (!ct_equal(BytesView(expected), BytesView(envelope.tag)))
                    return VerifyResult::kBadTag;
                break;
            }
            case AuthMode::kSignature: {
                if (ca_public_key_.empty()) return VerifyResult::kNoKey;
                if (!envelope.cert) return VerifyResult::kBadCert;
                if (!cert_signature_valid(*envelope.cert, probe))
                    return VerifyResult::kBadCert;
                if (now < envelope.cert->valid_from ||
                    now > envelope.cert->valid_until)
                    return VerifyResult::kBadCert;
                // The claimed sender must be the certified identity --
                // otherwise any certificate holder could speak as anyone
                // (identity binding, IEEE 1609.2 semantics).
                if (envelope.cert->subject.value != envelope.sender)
                    return VerifyResult::kBadCert;
                if (crl_.is_revoked(envelope.cert->serial))
                    return VerifyResult::kRevoked;
                const auto compute_sig_ok = [&] {
                    Signature sig{envelope.tag};
                    g_sig_verifies.inc();
                    return verify(BytesView(envelope.cert->public_key),
                                  envelope.authenticated_bytes(), sig);
                };
                bool sig_ok;
                if (cache_ != nullptr) {
                    const FactKey key = sig_fact_key(
                        BytesView(envelope.cert->public_key), envelope);
                    ++probe.consulted;
                    if (const auto hit = cache_->lookup(key)) {
                        ++probe.hits;
                        sig_ok = *hit;
                    } else {
                        sig_ok = compute_sig_ok();
                        cache_->store(key, sig_ok);
                    }
                } else {
                    sig_ok = compute_sig_ok();
                }
                if (!sig_ok) return VerifyResult::kBadTag;
                break;
            }
        }

        if (config_.check_replay) {
            // Never cached: freshness depends on `now` and this receiver's
            // per-sender high-water mark. A replayed envelope must fail
            // here even when every authenticity fact above was a cache hit.
            const VerifyResult fresh = replay_guard_.check(
                envelope.sender, envelope.seq, envelope.timestamp, now);
            if (fresh != VerifyResult::kOk) return fresh;
        }
    }

    if (envelope.encrypted) {
        // Never cached: decryption outcome depends on this receiver's key
        // material, and the payload mutation must happen per copy.
        const Bytes key = encryption_key();
        if (key.empty()) return VerifyResult::kNoKey;
        ChaCha20 cipher(BytesView(key),
                        BytesView(nonce_for(envelope.sender, envelope.seq)));
        cipher.apply(envelope.payload);
        envelope.encrypted = false;
    }
    return VerifyResult::kOk;
}

}  // namespace platoon::crypto

// Secured-message envelope: authentication, freshness and confidentiality
// for platoon messages.
//
// Implements the paper's "Secret and Public Keys" mechanism family
// (Section VI-A.1): a configurable per-node security context that can
//   - leave messages unprotected (the attack baseline),
//   - MAC them with a platoon group key (cheap; insider can forge),
//   - MAC them with pairwise keys (e.g. from fading key agreement [5]),
//   - sign them with a certified key (PKI / IEEE 1609.2 style),
// and optionally encrypt payloads (ChaCha20) for confidentiality.
// Verification enforces the CA chain, revocation, a freshness window
// (timestamps) and per-sender monotonic sequence numbers (replay defense).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "crypto/cert.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/hmac.hpp"
#include "crypto/verdict_cache.hpp"
#include "base/types.hpp"

namespace platoon::crypto {

enum class AuthMode : std::uint8_t {
    kNone = 0,      ///< No protection (open 802.11p broadcast).
    kGroupMac,      ///< HMAC under a shared platoon key.
    kPairwiseMac,   ///< HMAC under a per-(sender,receiver) key.
    kSignature,     ///< Schnorr signature + attached certificate.
};

struct Envelope {
    AuthMode mode = AuthMode::kNone;
    std::uint32_t sender = sim::NodeId::kInvalidValue;  ///< Claimed sender.
    std::uint64_t seq = 0;
    sim::SimTime timestamp = 0.0;
    bool encrypted = false;
    Bytes payload;                    ///< Ciphertext when encrypted.
    Bytes tag;                        ///< MAC tag or signature.
    std::optional<Certificate> cert;  ///< Attached for kSignature.

    /// Canonical bytes covered by the MAC/signature.
    [[nodiscard]] Bytes authenticated_bytes() const;
    /// Approximate wire size in bytes (for MAC airtime accounting).
    [[nodiscard]] std::size_t wire_size() const;
};

enum class VerifyResult : std::uint8_t {
    kOk = 0,
    kUnprotected,   ///< mode == kNone and policy requires protection.
    kBadTag,        ///< MAC/signature check failed.
    kBadCert,       ///< Missing/invalid/expired certificate.
    kRevoked,       ///< Certificate serial on the CRL.
    kStale,         ///< Timestamp outside freshness window.
    kReplay,        ///< Sequence number not fresh for this sender.
    kNoKey,         ///< No key material to verify with.
};

[[nodiscard]] const char* to_string(VerifyResult r);

/// Per-sender anti-replay state: freshness window on timestamps plus a
/// monotonic high-water mark on sequence numbers.
class ReplayGuard {
public:
    explicit ReplayGuard(sim::SimTime freshness_window_s = 0.5)
        : window_(freshness_window_s) {}

    /// Checks and (when fresh) records (sender, seq, timestamp).
    [[nodiscard]] VerifyResult check(std::uint32_t sender, std::uint64_t seq,
                                     sim::SimTime timestamp, sim::SimTime now);

    [[nodiscard]] sim::SimTime window() const { return window_; }
    void set_window(sim::SimTime w) { window_ = w; }

private:
    sim::SimTime window_;
    std::unordered_map<std::uint32_t, std::uint64_t> last_seq_;
};

/// Per-node security context.
class MessageProtection {
public:
    struct Config {
        AuthMode mode = AuthMode::kNone;
        bool encrypt = false;
        sim::SimTime freshness_window_s = 0.5;
        bool check_replay = true;
    };

    MessageProtection() = default;
    explicit MessageProtection(Config config) : config_(config) {}

    [[nodiscard]] const Config& config() const { return config_; }
    void set_mode(AuthMode mode) { config_.mode = mode; }
    void set_encrypt(bool on) { config_.encrypt = on; }

    /// --- shared-verdict memoization ---------------------------------------
    /// Installs a shared (per-scenario) cache of receiver-independent crypto
    /// facts: certificate-signature validity, message-signature validity and
    /// group-MAC tag validity. N receivers of one broadcast envelope then
    /// pay one verification; the rest count as `crypto.verify.cached`.
    /// Per-receiver checks (cert time window, CRL, replay freshness,
    /// pairwise-MAC, decryption) are never cached. nullptr (the default)
    /// restores fully independent verification.
    void set_verdict_cache(VerdictCache* cache) { cache_ = cache; }
    [[nodiscard]] VerdictCache* verdict_cache() const { return cache_; }

    /// --- key material -----------------------------------------------------
    void set_group_key(Bytes key) {
        group_key_ = std::move(key);
        group_key_digest_.clear();
    }
    [[nodiscard]] bool has_group_key() const { return !group_key_.empty(); }
    void set_pairwise_key(std::uint32_t peer, Bytes key) {
        pairwise_keys_[peer] = std::move(key);
    }
    [[nodiscard]] bool has_pairwise_key(std::uint32_t peer) const {
        return pairwise_keys_.contains(peer);
    }
    void set_credential(Credential credential) {
        credential_ = std::move(credential);
    }
    void set_ca_public_key(Bytes ca_pub) { ca_public_key_ = std::move(ca_pub); }
    [[nodiscard]] RevocationList& crl() { return crl_; }
    [[nodiscard]] const RevocationList& crl() const { return crl_; }

    /// --- sending ----------------------------------------------------------
    /// Wraps `payload` for broadcast. `sender` is this node's claimed id
    /// (normally its own; an impersonator passes the stolen identity and a
    /// stolen credential). For kPairwiseMac, `receiver` selects the key.
    Envelope protect(std::uint32_t sender, BytesView payload, sim::SimTime now,
                     std::optional<std::uint32_t> receiver = std::nullopt);

    /// --- receiving --------------------------------------------------------
    /// Verifies and (when encrypted) decrypts in place. On kOk,
    /// envelope.payload holds the plaintext. Under a kNone policy an
    /// unencrypted envelope is accepted at once: no cache lookup, no
    /// crypto.verify timer, no crypto.verify.* count.
    VerifyResult verify_and_open(Envelope& envelope, sim::SimTime now);

    [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }
    /// Jumps the outgoing sequence counter (an impersonator must outrun the
    /// victim's high-water mark or its forgeries read as replays).
    void set_seq_base(std::uint64_t seq) { next_seq_ = seq; }

private:
    /// Tracks shared-cache consultations within one verify_and_open call:
    /// a call whose every consulted fact was a hit did zero fresh crypto
    /// and is counted as `crypto.verify.cached` instead of
    /// `crypto.verify.ok` (only kOk calls are split; failures count as
    /// `crypto.verify.fail` either way).
    struct CacheProbe {
        int consulted = 0;
        int hits = 0;
    };

    VerifyResult verify_and_open_impl(Envelope& envelope, sim::SimTime now,
                                      CacheProbe& probe);
    [[nodiscard]] Bytes mac_key_for(std::uint32_t peer) const;
    [[nodiscard]] Bytes encryption_key() const;
    [[nodiscard]] Bytes nonce_for(std::uint32_t sender, std::uint64_t seq) const;
    /// SHA-256 of the group key (cached); binds group-MAC facts to the key.
    [[nodiscard]] const Bytes& group_key_digest() const;

    /// Memoized CA-signature checks: certificates are immutable, so a
    /// serial whose signature verified once never needs re-verification
    /// (time-window and CRL checks stay per-message -- they depend on now).
    /// With a shared cache installed the fact lives there instead, keyed on
    /// the full (CA key, tbs, signature) digest.
    [[nodiscard]] bool cert_signature_valid(const Certificate& cert,
                                            CacheProbe& probe) const;

    Config config_;
    mutable std::unordered_set<std::uint64_t> verified_cert_serials_;
    Bytes group_key_;
    mutable Bytes group_key_digest_;
    std::unordered_map<std::uint32_t, Bytes> pairwise_keys_;
    std::optional<Credential> credential_;
    Bytes ca_public_key_;
    RevocationList crl_;
    ReplayGuard replay_guard_{0.5};
    std::uint64_t next_seq_ = 1;
    VerdictCache* cache_ = nullptr;  ///< Shared, non-owning; may be null.
};

}  // namespace platoon::crypto

// Differential test harness for the crypto verification fast path.
//
// Three claims are pinned here, each against a reference oracle:
//  1. The windowed / precomputed scalar-multiplication paths are bit-for-bit
//     equal to the double-and-add oracle on edge cases and random inputs.
//  2. Shared-verdict memoization never changes a verdict: every AuthMode x
//     tamper scenario produces the identical VerifyResult (and opened
//     payload) per receiver with the cache on and off.
//  3. The counter split obeys crypto.verify.ok + crypto.verify.cached ==
//     the pre-memoization crypto.verify.ok, and per-receiver checks
//     (replay, pairwise-MAC, decryption) are never served from the cache.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "crypto/cert.hpp"
#include "crypto/eddsa.hpp"
#include "crypto/secured_message.hpp"
#include "crypto/verdict_cache.hpp"
#include "obs/counters.hpp"
#include "obs/timer.hpp"
#include "sim/random.hpp"

namespace pc = platoon::crypto;
using platoon::obs::counter_snapshot;
using platoon::obs::reset_counters;
using platoon::obs::set_enabled;
using platoon::sim::NodeId;
using platoon::sim::RandomStream;

namespace {

pc::Bytes seedb(std::uint8_t fill) { return pc::Bytes(32, fill); }

// --- 1. windowed scalar multiplication vs the double-and-add oracle --------

std::vector<pc::U256> edge_scalars() {
    const pc::U256& L = pc::group_order();
    bool borrow = false;
    std::vector<pc::U256> ks = {
        pc::U256(0),  pc::U256(1),  pc::U256(2),  pc::U256(15),
        pc::U256(16), pc::U256(17), pc::U256(255),
        pc::sub(L, pc::U256(1), borrow),  // L - 1 (max valid scalar)
        pc::sub(L, pc::U256(2), borrow),  // L - 2
        L,                                // the order itself: k*P = identity
    };
    pc::U256 k;
    k.w[0] = 1ull << 63;  // single bit at a word boundary
    ks.push_back(k);
    k = pc::U256{};
    k.w[1] = 1;  // 2^64
    ks.push_back(k);
    k = pc::U256{};
    k.w[3] = 1ull << 60;  // 2^252
    ks.push_back(k);
    k.w = {~0ull, ~0ull, ~0ull, ~0ull};  // max 256-bit value
    ks.push_back(k);
    RandomStream rng(41, "fastpath.scalars");
    for (int i = 0; i < 8; ++i) {
        for (auto& w : k.w) w = rng.bits();
        ks.push_back(k);
    }
    return ks;
}

/// The order-2 point (0, -1): the only non-identity small-order edge the
/// uncompressed wire format can carry.
pc::Point order_two_point() {
    pc::Point p;
    p.x = pc::Fe::zero();
    p.y = pc::fe_neg(pc::Fe::one());
    p.z = pc::Fe::one();
    p.t = pc::Fe::zero();
    return p;
}

TEST(WindowedScalarMul, BaseCombMatchesDoubleAndAddBitForBit) {
    const pc::Point& B = pc::base_point();
    for (const pc::U256& k : edge_scalars()) {
        EXPECT_EQ(pc::point_to_bytes(pc::scalar_mul_base(k)),
                  pc::point_to_bytes(pc::scalar_mul(k, B)))
            << "k=" << k.to_hex();
    }
}

TEST(WindowedScalarMul, FixedWindowMatchesDoubleAndAddOnEdgePoints) {
    const std::vector<pc::Point> points = {
        pc::base_point(),
        pc::Point::identity(),
        order_two_point(),
        pc::scalar_mul(pc::U256(99991), pc::base_point()),
    };
    for (const pc::Point& p : points) {
        ASSERT_TRUE(pc::on_curve(p));
        for (const pc::U256& k : edge_scalars()) {
            EXPECT_EQ(pc::point_to_bytes(pc::scalar_mul_windowed(k, p)),
                      pc::point_to_bytes(pc::scalar_mul(k, p)))
                << "k=" << k.to_hex();
        }
    }
}

TEST(WindowedScalarMul, OrderAnnihilatesAndIdentityAbsorbs) {
    // k*identity == identity for every k, and L*B == identity on every path.
    const pc::Point id = pc::Point::identity();
    for (const pc::U256& k : edge_scalars()) {
        EXPECT_TRUE(pc::point_equal(pc::scalar_mul_windowed(k, id), id));
    }
    const pc::U256& L = pc::group_order();
    EXPECT_TRUE(pc::point_equal(pc::scalar_mul_base(L), id));
    EXPECT_TRUE(pc::point_equal(
        pc::scalar_mul_windowed(L, pc::base_point()), id));
}

TEST(WindowedScalarMul, VerifierEquationAgreesWithShamirOracle) {
    // The verifier computes sB + e*(-P) on the windowed paths; the oracle is
    // double_scalar_mul (Shamir). Both must canonicalize to the same bytes.
    RandomStream rng(43, "fastpath.verifyeq");
    const pc::Point& B = pc::base_point();
    for (int i = 0; i < 10; ++i) {
        pc::U256 s, e, x;
        for (auto& w : s.w) w = rng.bits();
        for (auto& w : e.w) w = rng.bits();
        for (auto& w : x.w) w = rng.bits();
        s = pc::mod(s, pc::group_order());
        e = pc::mod(e, pc::group_order());
        const pc::Point neg_p =
            pc::point_neg(pc::scalar_mul(pc::mod(x, pc::group_order()), B));
        const pc::Point oracle = pc::double_scalar_mul(s, B, e, neg_p);
        const pc::Point fast = pc::point_add(pc::scalar_mul_base(s),
                                             pc::scalar_mul_windowed(e, neg_p));
        EXPECT_EQ(pc::point_to_bytes(fast), pc::point_to_bytes(oracle))
            << "i=" << i;
    }
}

TEST(WindowedScalarMul, KeyDerivationUnchangedByCombTable) {
    // Public keys (and hence every signature and certificate in the repo's
    // golden data) must be byte-identical to the double-and-add era.
    for (std::uint8_t f : {1, 7, 42, 200}) {
        const auto kp = pc::KeyPair::from_seed(seedb(f));
        EXPECT_EQ(kp.public_bytes,
                  pc::point_to_bytes(pc::scalar_mul(kp.secret,
                                                    pc::base_point())));
        const pc::Bytes msg = pc::to_bytes("fastpath key derivation");
        EXPECT_TRUE(pc::verify(pc::BytesView(kp.public_bytes),
                               pc::BytesView(msg),
                               pc::sign(kp, pc::BytesView(msg))));
    }
}

// --- 2. differential memoization harness -----------------------------------

enum class Tamper {
    kHonest,
    kForgedTag,
    kTamperedPayload,
    kWrongIdentity,        // signature only
    kExpiredCert,          // signature only
    kRevokedCert,          // signature only
    kReplayed,
    kDriftedTimestamp,
    kExpiredCertForgedTag, // signature only: pins failure-order preservation
};

const char* to_string(Tamper t) {
    switch (t) {
        case Tamper::kHonest: return "honest";
        case Tamper::kForgedTag: return "forged-tag";
        case Tamper::kTamperedPayload: return "tampered-payload";
        case Tamper::kWrongIdentity: return "wrong-identity";
        case Tamper::kExpiredCert: return "expired-cert";
        case Tamper::kRevokedCert: return "revoked-cert";
        case Tamper::kReplayed: return "replayed";
        case Tamper::kDriftedTimestamp: return "drifted-timestamp";
        case Tamper::kExpiredCertForgedTag: return "expired+forged";
    }
    return "?";
}

class VerifyFastPath : public ::testing::Test {
protected:
    static constexpr std::uint32_t kSender = 7;
    static constexpr double kNow = 50.0;

    pc::Bytes group_key_ = pc::Bytes(32, 0x55);
    pc::Bytes pairwise_key_ = pc::Bytes(32, 0x66);
    pc::CertificateAuthority ca_{pc::BytesView(seedb(20))};
    pc::KeyPair signer_ = pc::KeyPair::from_seed(seedb(21));
    pc::Credential cred_{signer_, ca_.issue(NodeId{kSender}, 0,
                                            signer_.public_bytes, 0.0, 100.0)};
    pc::KeyPair expired_signer_ = pc::KeyPair::from_seed(seedb(22));
    pc::Credential expired_cred_{
        expired_signer_,
        ca_.issue(NodeId{kSender}, 0, expired_signer_.public_bytes, 0.0, 10.0)};

    pc::MessageProtection make_sender(pc::AuthMode mode,
                                      bool expired_cert = false,
                                      bool encrypt = false) {
        pc::MessageProtection::Config cfg;
        cfg.mode = mode;
        cfg.encrypt = encrypt;
        pc::MessageProtection s(cfg);
        if (mode == pc::AuthMode::kGroupMac || encrypt)
            s.set_group_key(group_key_);
        if (mode == pc::AuthMode::kPairwiseMac)
            s.set_pairwise_key(1, pairwise_key_);
        if (mode == pc::AuthMode::kSignature) {
            s.set_credential(expired_cert ? expired_cred_ : cred_);
            s.set_ca_public_key(ca_.public_key());
        }
        return s;
    }

    std::vector<pc::MessageProtection> make_bank(pc::AuthMode mode,
                                                 std::size_t n,
                                                 pc::VerdictCache* cache,
                                                 bool revoke_sender = false) {
        std::vector<pc::MessageProtection> bank;
        bank.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            pc::MessageProtection::Config cfg;
            cfg.mode = mode;
            pc::MessageProtection r(cfg);
            if (mode == pc::AuthMode::kGroupMac) r.set_group_key(group_key_);
            if (mode == pc::AuthMode::kPairwiseMac)
                r.set_pairwise_key(kSender, pairwise_key_);
            if (mode == pc::AuthMode::kSignature) {
                r.set_ca_public_key(ca_.public_key());
                if (revoke_sender) r.crl().revoke(cred_.cert.serial);
            }
            r.set_verdict_cache(cache);
            bank.push_back(std::move(r));
        }
        return bank;
    }

    pc::Envelope build(pc::AuthMode mode, Tamper t) {
        const bool expired = t == Tamper::kExpiredCert ||
                             t == Tamper::kExpiredCertForgedTag;
        auto sender = make_sender(mode, expired);
        const pc::Bytes payload = pc::to_bytes("platoon beacon payload");
        const std::optional<std::uint32_t> receiver =
            mode == pc::AuthMode::kPairwiseMac ? std::optional<std::uint32_t>(1)
                                               : std::nullopt;
        const std::uint32_t claimed =
            t == Tamper::kWrongIdentity ? kSender + 1 : kSender;
        const double sent_at =
            t == Tamper::kDriftedTimestamp ? kNow - 10.0 : kNow;
        pc::Envelope env =
            sender.protect(claimed, pc::BytesView(payload), sent_at, receiver);
        if (t == Tamper::kForgedTag || t == Tamper::kExpiredCertForgedTag)
            env.tag[3] ^= 0x01;
        if (t == Tamper::kTamperedPayload) env.payload[0] ^= 0x01;
        return env;
    }

    struct Delivery {
        pc::VerifyResult first;
        pc::VerifyResult second;  // meaningful for kReplayed only
        pc::Bytes payload;
    };

    static std::vector<Delivery> deliver(std::vector<pc::MessageProtection>& bank,
                                         const pc::Envelope& env, bool replay) {
        std::vector<Delivery> out;
        out.reserve(bank.size());
        for (auto& receiver : bank) {
            Delivery d{};
            pc::Envelope copy = env;
            d.first = receiver.verify_and_open(copy, kNow);
            d.payload = copy.payload;
            if (replay) {
                pc::Envelope again = env;
                d.second = receiver.verify_and_open(again, kNow);
            }
            out.push_back(std::move(d));
        }
        return out;
    }

    static pc::VerifyResult expected(pc::AuthMode mode, Tamper t, bool second) {
        using R = pc::VerifyResult;
        const bool unprotected = mode == pc::AuthMode::kNone;
        switch (t) {
            case Tamper::kHonest: return R::kOk;
            case Tamper::kForgedTag: return R::kBadTag;
            case Tamper::kTamperedPayload:
                return unprotected ? R::kOk : R::kBadTag;
            case Tamper::kWrongIdentity: return R::kBadCert;
            case Tamper::kExpiredCert: return R::kBadCert;
            case Tamper::kRevokedCert: return R::kRevoked;
            case Tamper::kReplayed:
                // kNone policies run no replay guard; everyone else must
                // reject the second copy per-receiver even on cache hits.
                if (!second || unprotected) return R::kOk;
                return R::kReplay;
            case Tamper::kDriftedTimestamp:
                return unprotected ? R::kOk : R::kStale;
            case Tamper::kExpiredCertForgedTag: return R::kBadCert;
        }
        return R::kOk;
    }
};

TEST_F(VerifyFastPath, DifferentialVerdictsIdenticalWithAndWithoutCache) {
    const std::array<pc::AuthMode, 4> modes = {
        pc::AuthMode::kNone, pc::AuthMode::kGroupMac,
        pc::AuthMode::kPairwiseMac, pc::AuthMode::kSignature};
    const std::array<Tamper, 9> tampers = {
        Tamper::kHonest,          Tamper::kForgedTag,
        Tamper::kTamperedPayload, Tamper::kWrongIdentity,
        Tamper::kExpiredCert,     Tamper::kRevokedCert,
        Tamper::kReplayed,        Tamper::kDriftedTimestamp,
        Tamper::kExpiredCertForgedTag};
    constexpr std::size_t kReceivers = 4;

    for (const pc::AuthMode mode : modes) {
        for (const Tamper t : tampers) {
            const bool sig_only = t == Tamper::kWrongIdentity ||
                                  t == Tamper::kExpiredCert ||
                                  t == Tamper::kRevokedCert ||
                                  t == Tamper::kExpiredCertForgedTag;
            if (sig_only && mode != pc::AuthMode::kSignature) continue;
            if (t == Tamper::kForgedTag && mode == pc::AuthMode::kNone)
                continue;  // no tag to forge

            const pc::Envelope env = build(mode, t);
            const bool revoke = t == Tamper::kRevokedCert;
            const bool replay = t == Tamper::kReplayed;
            pc::VerdictCache cache;
            auto with_cache = make_bank(mode, kReceivers, &cache, revoke);
            auto without = make_bank(mode, kReceivers, nullptr, revoke);
            const auto a = deliver(with_cache, env, replay);
            const auto b = deliver(without, env, replay);

            for (std::size_t i = 0; i < kReceivers; ++i) {
                const auto ctx = std::string("mode=") +
                                 std::to_string(static_cast<int>(mode)) +
                                 " tamper=" + to_string(t) +
                                 " receiver=" + std::to_string(i);
                EXPECT_EQ(a[i].first, b[i].first) << ctx;
                EXPECT_EQ(a[i].payload, b[i].payload) << ctx;
                EXPECT_EQ(a[i].first, expected(mode, t, false)) << ctx;
                if (replay) {
                    EXPECT_EQ(a[i].second, b[i].second) << ctx;
                    EXPECT_EQ(a[i].second, expected(mode, t, true)) << ctx;
                }
            }
        }
    }
}

TEST_F(VerifyFastPath, EightReceiversPayExactlyOneVerification) {
    const pc::Envelope env = build(pc::AuthMode::kSignature, Tamper::kHonest);
    pc::VerdictCache cache;
    auto bank = make_bank(pc::AuthMode::kSignature, 8, &cache);
    reset_counters();
    set_enabled(true);
    for (auto& r : bank) {
        pc::Envelope copy = env;
        EXPECT_EQ(r.verify_and_open(copy, kNow), pc::VerifyResult::kOk);
    }
    const auto snap = counter_snapshot();
    set_enabled(false);
    EXPECT_EQ(snap.at("crypto.verify.ok"), 1u);
    EXPECT_EQ(snap.at("crypto.verify.cached"), 7u);
    // One cert-chain check + one message-signature check, total, for all 8.
    EXPECT_EQ(snap.at("crypto.sig_verifies"), 2u);
    EXPECT_EQ(snap.at("crypto.verify.fail"), 0u);
}

TEST_F(VerifyFastPath, OkPlusCachedEqualsIndependentOk) {
    // Three distinct envelopes fanned out to 8 receivers: the memoized
    // regime's ok + cached must equal the independent regime's ok.
    auto sender = make_sender(pc::AuthMode::kSignature);
    const pc::Bytes payload = pc::to_bytes("sum-preservation beacon");
    std::vector<pc::Envelope> envs;
    for (int i = 0; i < 3; ++i)
        envs.push_back(sender.protect(kSender, pc::BytesView(payload), kNow));

    const auto run = [&](pc::VerdictCache* cache) {
        auto bank = make_bank(pc::AuthMode::kSignature, 8, cache);
        reset_counters();
        set_enabled(true);
        for (const auto& env : envs) {
            for (auto& r : bank) {
                pc::Envelope copy = env;
                EXPECT_EQ(r.verify_and_open(copy, kNow),
                          pc::VerifyResult::kOk);
            }
        }
        const auto snap = counter_snapshot();
        set_enabled(false);
        return snap;
    };

    pc::VerdictCache cache;
    const auto memoized = run(&cache);
    const auto independent = run(nullptr);
    EXPECT_EQ(independent.at("crypto.verify.cached"), 0u);
    EXPECT_EQ(memoized.at("crypto.verify.ok") +
                  memoized.at("crypto.verify.cached"),
              independent.at("crypto.verify.ok"));
    EXPECT_EQ(memoized.at("crypto.verify.fail"),
              independent.at("crypto.verify.fail"));
    // 3 envelopes x (cert + sig) once each vs once per receiver. The
    // independent bank still memoizes the cert serial per instance.
    EXPECT_EQ(memoized.at("crypto.sig_verifies"), 4u);  // 1 cert + 3 sigs
    EXPECT_EQ(independent.at("crypto.sig_verifies"), 8u + 24u);
}

TEST_F(VerifyFastPath, ReplayRejectedEvenWhenEveryFactIsACacheHit) {
    const pc::Envelope env = build(pc::AuthMode::kSignature, Tamper::kHonest);
    pc::VerdictCache cache;
    auto bank = make_bank(pc::AuthMode::kSignature, 2, &cache);
    for (auto& r : bank) {
        pc::Envelope copy = env;
        EXPECT_EQ(r.verify_and_open(copy, kNow), pc::VerifyResult::kOk);
    }
    // Same envelope again: all authenticity facts are now cache hits, but
    // the per-receiver replay guard must still fire at every receiver.
    for (auto& r : bank) {
        pc::Envelope copy = env;
        EXPECT_EQ(r.verify_and_open(copy, kNow), pc::VerifyResult::kReplay);
    }
}

TEST_F(VerifyFastPath, PairwiseMacVerdictsAreNeverShared) {
    // Distinct pairwise keys: the same envelope legitimately verifies at one
    // receiver and fails at the other. A (buggy) shared MAC fact would leak
    // the first receiver's verdict to the second.
    pc::VerdictCache cache;
    pc::MessageProtection::Config cfg;
    cfg.mode = pc::AuthMode::kPairwiseMac;
    pc::MessageProtection keyed(cfg), other(cfg);
    keyed.set_pairwise_key(kSender, pairwise_key_);
    other.set_pairwise_key(kSender, pc::Bytes(32, 0x77));
    keyed.set_verdict_cache(&cache);
    other.set_verdict_cache(&cache);

    auto sender = make_sender(pc::AuthMode::kPairwiseMac);
    const pc::Bytes payload = pc::to_bytes("pairwise unicast");
    pc::Envelope env =
        sender.protect(kSender, pc::BytesView(payload), kNow, 1);

    reset_counters();
    set_enabled(true);
    pc::Envelope a = env;
    pc::Envelope b = env;
    EXPECT_EQ(keyed.verify_and_open(a, kNow), pc::VerifyResult::kOk);
    EXPECT_EQ(other.verify_and_open(b, kNow), pc::VerifyResult::kBadTag);
    const auto snap = counter_snapshot();
    set_enabled(false);
    EXPECT_EQ(snap.at("crypto.verify.cached"), 0u);
    EXPECT_EQ(snap.at("crypto.verdict_cache.hit"), 0u);
}

TEST_F(VerifyFastPath, DecryptionHappensPerCopyAndIsNeverCached) {
    auto sender = make_sender(pc::AuthMode::kGroupMac, false, /*encrypt=*/true);
    const pc::Bytes plaintext = pc::to_bytes("confidential gap command");
    pc::Envelope env = sender.protect(kSender, pc::BytesView(plaintext), kNow);
    ASSERT_TRUE(env.encrypted);
    ASSERT_NE(env.payload, plaintext);

    pc::VerdictCache cache;
    auto bank = make_bank(pc::AuthMode::kGroupMac, 3, &cache);
    for (auto& r : bank) {
        pc::Envelope copy = env;
        EXPECT_EQ(r.verify_and_open(copy, kNow), pc::VerifyResult::kOk);
        EXPECT_FALSE(copy.encrypted);
        EXPECT_EQ(copy.payload, plaintext);
    }
    // An unkeyed receiver fails decryption even though the MAC fact for this
    // envelope is a cache hit by now.
    pc::MessageProtection::Config cfg;
    cfg.mode = pc::AuthMode::kGroupMac;
    pc::MessageProtection unkeyed(cfg);
    unkeyed.set_verdict_cache(&cache);
    pc::Envelope copy = env;
    EXPECT_EQ(unkeyed.verify_and_open(copy, kNow), pc::VerifyResult::kNoKey);
}

TEST_F(VerifyFastPath, GroupMacFanOutPaysOneMacComputation) {
    const pc::Envelope env = build(pc::AuthMode::kGroupMac, Tamper::kHonest);
    pc::VerdictCache cache;
    auto bank = make_bank(pc::AuthMode::kGroupMac, 4, &cache);
    reset_counters();
    set_enabled(true);
    for (auto& r : bank) {
        pc::Envelope copy = env;
        EXPECT_EQ(r.verify_and_open(copy, kNow), pc::VerifyResult::kOk);
    }
    const auto snap = counter_snapshot();
    set_enabled(false);
    EXPECT_EQ(snap.at("crypto.verify.ok"), 1u);
    EXPECT_EQ(snap.at("crypto.verify.cached"), 3u);
}

TEST_F(VerifyFastPath, UnprotectedFanOutTouchesNeitherCacheNorCounters) {
    // An unencrypted envelope under a kNone policy carries no crypto: every
    // receiver accepts it without a cache lookup and without counting a
    // verification of any kind.
    const pc::Envelope env = build(pc::AuthMode::kNone, Tamper::kHonest);
    pc::VerdictCache cache;
    auto bank = make_bank(pc::AuthMode::kNone, 6, &cache);
    reset_counters();
    platoon::obs::reset_timers();
    set_enabled(true);
    for (auto& r : bank) {
        pc::Envelope copy = env;
        EXPECT_EQ(r.verify_and_open(copy, kNow), pc::VerifyResult::kOk);
    }
    const auto snap = counter_snapshot();
    const auto timers = platoon::obs::timer_snapshot();
    set_enabled(false);
    EXPECT_FALSE(timers.contains("crypto.verify"));
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(snap.at("crypto.verdict_cache.hit"), 0u);
    EXPECT_EQ(snap.at("crypto.verdict_cache.miss"), 0u);
    for (const auto& [name, value] : snap) {
        if (name.rfind("crypto.verify.", 0) == 0) {
            EXPECT_EQ(value, 0u) << name;
        }
    }
}


// --- bounded cache ----------------------------------------------------------

TEST(VerdictCacheTest, FifoEvictionKeepsTheCacheBounded) {
    pc::VerdictCache cache(4);
    const auto key = [](std::uint8_t i) {
        pc::VerdictCache::Key k{};
        k[0] = i;
        return k;
    };
    for (std::uint8_t i = 0; i < 6; ++i) cache.store(key(i), i % 2 == 0);
    EXPECT_EQ(cache.size(), 4u);
    // Oldest two evicted, newest four retained with their values.
    EXPECT_FALSE(cache.lookup(key(0)).has_value());
    EXPECT_FALSE(cache.lookup(key(1)).has_value());
    for (std::uint8_t i = 2; i < 6; ++i) {
        const auto hit = cache.lookup(key(i));
        ASSERT_TRUE(hit.has_value()) << "i=" << int(i);
        EXPECT_EQ(*hit, i % 2 == 0);
    }
}

}  // namespace

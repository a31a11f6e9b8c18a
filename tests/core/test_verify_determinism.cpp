// Determinism contract of the verification fast path at the scenario level:
// the obs counters -- including the crypto.verify.ok / crypto.verify.cached
// split -- must be bit-identical at any job count, and
// toggling share_verify_verdicts may change only how the crypto cost is
// accounted, never a verdict or anything downstream of one.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <string>

#include "core/experiment.hpp"
#include "obs/counters.hpp"

namespace {

namespace pc = platoon::core;
namespace obs = platoon::obs;

pc::RunSpec signed_spec(bool share_verdicts) {
    pc::RunSpec spec;
    spec.scenario.seed = 42;
    spec.scenario.platoon_size = 4;
    spec.scenario.security.auth_mode = platoon::crypto::AuthMode::kSignature;
    spec.scenario.share_verify_verdicts = share_verdicts;
    spec.duration_s = 5.0;
    return spec;
}

std::map<std::string, std::uint64_t> counters_for(const pc::RunSpec& spec,
                                                  unsigned jobs) {
    obs::reset_counters();
    obs::set_enabled(true);
    const auto agg = pc::run_seeds(spec, 4, jobs);
    EXPECT_EQ(agg.runs, 4u);
    auto snap = obs::counter_snapshot();
    obs::set_enabled(false);
    return snap;
}

TEST(VerifyDeterminism, SignedCountersBitIdenticalAcrossJobCounts) {
    const auto spec = signed_spec(true);
    const auto serial = counters_for(spec, 1);
    const auto parallel = counters_for(spec, 4);
    EXPECT_EQ(serial, parallel);
    // The fast path actually ran (a zero-vs-zero match proves nothing): the
    // first receiver of each fan-out verified, the rest hit the shared cache.
    EXPECT_GT(serial.at("crypto.verify.ok"), 0u);
    EXPECT_GT(serial.at("crypto.verify.cached"), 0u);
    EXPECT_GT(serial.at("crypto.sig_verifies"), 0u);
    EXPECT_EQ(serial.at("crypto.sig_verifies"),
              parallel.at("crypto.sig_verifies"));
    // Every signature check runs on the one verification path.
    EXPECT_EQ(serial.at("crypto.verify.batched"), 0u);
}

TEST(VerifyDeterminism, UnprotectedCountersBitIdenticalAcrossJobCounts) {
    // Default policy (kNone), unencrypted: frames carry no crypto, so the
    // receive path neither consults the verdict cache nor counts a verify.
    pc::RunSpec spec;
    spec.scenario.seed = 42;
    spec.scenario.platoon_size = 4;
    spec.duration_s = 5.0;
    const auto serial = counters_for(spec, 1);
    const auto parallel = counters_for(spec, 4);
    EXPECT_EQ(serial, parallel);
    EXPECT_GT(serial.at("net.delivered"), 0u);
    for (const char* name :
         {"crypto.sig_verifies", "crypto.verify.ok", "crypto.verify.cached",
          "crypto.verify.fail", "crypto.verify.batched",
          "crypto.verdict_cache.hit", "crypto.verdict_cache.miss"})
        EXPECT_EQ(serial.at(name), 0u) << name;
}

TEST(VerifyDeterminism, CacheToggleChangesOnlyTheCryptoCostSplit) {
    const auto with_cache = counters_for(signed_spec(true), 1);
    const auto without = counters_for(signed_spec(false), 1);

    // Every non-crypto counter is bit-identical: the cache changes what work
    // is done, never what the simulation observes.
    ASSERT_EQ(with_cache.size(), without.size());
    for (const auto& [name, value] : with_cache) {
        if (name.rfind("crypto.", 0) == 0) continue;
        EXPECT_EQ(value, without.at(name)) << "counter " << name;
    }

    // The verdict totals are preserved exactly; only the ok/cached split and
    // the number of raw signature checks move.
    EXPECT_EQ(without.at("crypto.verify.cached"), 0u);
    EXPECT_EQ(without.at("crypto.verify.batched"), 0u);
    EXPECT_EQ(with_cache.at("crypto.verify.ok") +
                  with_cache.at("crypto.verify.cached"),
              without.at("crypto.verify.ok"));
    EXPECT_EQ(with_cache.at("crypto.verify.fail"),
              without.at("crypto.verify.fail"));
    EXPECT_EQ(with_cache.at("crypto.protect"), without.at("crypto.protect"));
    EXPECT_EQ(with_cache.at("crypto.sign"), without.at("crypto.sign"));
    EXPECT_LT(with_cache.at("crypto.sig_verifies"),
              without.at("crypto.sig_verifies"));
}

TEST(VerifyDeterminism, CacheToggleLeavesMetricsBitIdentical) {
    // Same claim one level up: the aggregated run metrics (gap errors,
    // delivery stats, ...) cannot tell whether memoization was on.
    const auto with_cache = pc::run_seeds(signed_spec(true), 3, 1);
    const auto without = pc::run_seeds(signed_spec(false), 3, 1);
    ASSERT_EQ(with_cache.runs, 3u);
    ASSERT_EQ(without.runs, 3u);
    // Bit-exact, not operator==: short runs can report NaN metrics, and two
    // NaNs with the same bit pattern are the same deterministic result.
    const auto expect_bitwise_equal = [](const pc::MetricMap& a,
                                         const pc::MetricMap& b) {
        ASSERT_EQ(a.size(), b.size());
        auto ib = b.begin();
        for (const auto& [name, value] : a) {
            EXPECT_EQ(name, ib->first);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(value),
                      std::bit_cast<std::uint64_t>(ib->second))
                << "metric " << name;
            ++ib;
        }
    };
    expect_bitwise_equal(with_cache.mean, without.mean);
    expect_bitwise_equal(with_cache.stddev, without.stddev);
}

}  // namespace

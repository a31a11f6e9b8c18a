"""Each benchmark check passes a consistent evidence document and rejects a
doctored copy of it.

    cd perfbench && python3 -m unittest -q test_checks
"""

import copy
import unittest

import checks


def world(sent=100, radios=11, executed=5000):
    delivered = 600
    per, half_duplex, rng = 250, 50, sent * (radios - 1) - 900
    return {
        "sim_time_s": 3.0,
        "executed": executed,
        "radios": radios,
        "network": {"sent": sent, "delivered": delivered,
                    "dropped.per": per, "dropped.mac": 0,
                    "dropped.half_duplex": half_duplex,
                    "dropped.range": rng, "dropped.fault": 0},
        "summary": {"collisions": 0.0, "has_gap_samples": 1.0,
                    "min_gap_m": 4.8, "cacc_availability": 0.997},
        "summary_bits": {"min_gap_m": "4013333333333333",
                         "spacing_rms_m": "3fc2a8f5c28f5c29"},
        "fingerprint": "1d21aae503b698ed",
        "primary_rx": {"accepted": 900, "bad_tag": 0, "cert": 0,
                       "revoked": 0, "unprotected": 0, "no_key": 0,
                       "replay": 0, "stale": 0},
        "counters": {"net.sent": sent, "net.delivered": delivered,
                     "net.dropped.per": per, "net.dropped.mac": 0,
                     "net.dropped.half_duplex": half_duplex,
                     "net.dropped.range": rng, "net.dropped.fault": 0,
                     "sim.events_executed": executed, "crypto.sign": sent},
    }


def corridor_doc(workload="signed-corridor"):
    ref = world()
    at_reference = copy.deepcopy(ref)
    del at_reference["counters"]
    end = world(sent=300, executed=15000)
    del end["counters"]
    return {"workload": workload, "reference": ref,
            "measured": {"at_reference": at_reference, "at_end": end}}


def sweep_cell(attack, defense, attacked, values, mitigates=False,
               higher_is_worse=True):
    return {"attack": attack, "defense": defense, "attacked": attacked,
            "headline": "spacing_rms_m", "higher_is_worse": higher_is_worse,
            "paper_mitigates": mitigates, "values": values,
            "value_bits": [repr(v) for v in values]}


def sweep_doc():
    return {"workload": "table3-sweep", "measured": {"cells": [
        sweep_cell("replay", "none", False, [0.39, 0.39]),
        sweep_cell("replay", "none", True, [5.5, 6.3]),
        sweep_cell("jamming", "none", False, [0.999, 0.9997],
                   higher_is_worse=False),
        sweep_cell("jamming", "none", True, [0.29, 0.29],
                   higher_is_worse=False),
        sweep_cell("replay", "secret-and-public-keys", True, [0.39, 0.39],
                   mitigates=True),
        sweep_cell("replay", "roadside-units", True, [0.39, 9.3],
                   mitigates=False),
        sweep_cell("jamming", "hybrid-communications", True, [0.99, 0.99],
                   mitigates=True, higher_is_worse=False),
    ]}}


class CorridorChecks(unittest.TestCase):
    def test_consistent_document_passes(self):
        self.assertEqual(checks.check(corridor_doc()), [])
        self.assertEqual(checks.check(corridor_doc("corridor")), [])

    def test_conservation_rejects_a_removed_delivery(self):
        doc = corridor_doc()
        doc["measured"]["at_end"]["network"]["delivered"] -= 1
        self.assertTrue(any("RF conservation" in f
                            for f in checks.check(doc)))

    def test_conservation_allows_frames_still_on_air(self):
        w = world()
        w["network"]["sent"] += 2
        self.assertEqual(checks.rf_conservation(w), [])
        w["network"]["sent"] += w["radios"]
        self.assertTrue(checks.rf_conservation(w))

    def test_signing_allows_frames_waiting_for_the_medium(self):
        w = world()
        w["counters"]["crypto.sign"] += 3
        self.assertEqual(checks.every_frame_signed(w), [])
        w["counters"]["crypto.sign"] += w["radios"]
        self.assertTrue(checks.every_frame_signed(w))

    def test_conservation_rejects_a_miscounted_radio(self):
        w = world()
        w["radios"] += 1
        self.assertTrue(checks.rf_conservation(w))

    def test_twins_reject_a_counter_map_with_one_delivery_removed(self):
        doc = corridor_doc()
        doc["reference"]["counters"]["net.delivered"] -= 1
        self.assertTrue(any("net.delivered" in f
                            for f in checks.check(doc)))

    def test_twins_reject_a_missing_counter(self):
        w = world()
        del w["counters"]["net.dropped.range"]
        self.assertTrue(checks.counter_twins(w))

    def test_twins_reject_an_event_count_mismatch(self):
        w = world()
        w["counters"]["sim.events_executed"] += 1
        self.assertTrue(checks.counter_twins(w))

    def test_physics_rejects_a_collision(self):
        w = world()
        w["summary"]["collisions"] = 1.0
        self.assertTrue(checks.clean_physics(w))

    def test_physics_rejects_a_non_positive_or_missing_gap(self):
        for gap in (0.0, -0.2, None):
            w = world()
            w["summary"]["min_gap_m"] = gap
            self.assertTrue(checks.clean_physics(w), gap)

    def test_physics_rejects_low_cacc_availability(self):
        w = world()
        w["summary"]["cacc_availability"] = 0.9899
        self.assertTrue(checks.clean_physics(w))

    def test_signed_rejects_an_unsigned_frame(self):
        doc = corridor_doc()
        doc["reference"]["counters"]["crypto.sign"] -= 1
        self.assertTrue(any("crypto.sign" in f for f in checks.check(doc)))

    def test_unsigned_corridor_does_not_require_signatures(self):
        doc = corridor_doc("corridor")
        doc["reference"]["counters"]["crypto.sign"] = 0
        self.assertEqual(checks.check(doc), [])

    def test_rejections_at_the_primary_platoon_fail(self):
        for kind in checks.REJECTION_KINDS:
            doc = corridor_doc()
            doc["measured"]["at_end"]["primary_rx"][kind] = 1
            self.assertTrue(checks.check(doc), kind)

    def test_a_platoon_that_accepted_nothing_fails(self):
        w = world()
        w["primary_rx"]["accepted"] = 0
        self.assertTrue(checks.primary_rejections(w))

    def test_ticked_run_must_be_bit_identical(self):
        for key, value in (("fingerprint", "1d21aae503b698ee"),
                           ("executed", 5001)):
            doc = corridor_doc()
            doc["measured"]["at_reference"][key] = value
            self.assertTrue(checks.check(doc), key)
        doc = corridor_doc()
        doc["measured"]["at_reference"]["summary_bits"]["min_gap_m"] = \
            "4013333333333334"
        self.assertTrue(any("run_until" in f for f in checks.check(doc)))

    def test_traced_pass_must_match_the_untraced_pass(self):
        doc = corridor_doc()
        traced_end = copy.deepcopy(doc["measured"]["at_end"])
        doc["traced"] = {"at_end": traced_end}
        doc["obs"] = {"counters": dict(world(sent=300,
                                             executed=15000)["counters"]),
                      "timings_nondeterministic": {"timers": {}}}
        self.assertEqual(checks.check(doc), [])
        doc["obs"]["counters"]["net.sent"] -= 1
        self.assertTrue(checks.check(doc))
        doc["obs"]["counters"]["net.sent"] += 1
        traced_end["fingerprint"] = "0"
        self.assertTrue(checks.check(doc))


class SweepChecks(unittest.TestCase):
    def test_consistent_document_passes(self):
        self.assertEqual(checks.check(sweep_doc()), [])

    def test_attack_that_does_no_harm_fails(self):
        doc = sweep_doc()
        clean, attacked = doc["measured"]["cells"][0:2]
        clean["values"], attacked["values"] = attacked["values"], \
            clean["values"]
        self.assertTrue(any("not worse" in f for f in checks.check(doc)))

    def test_direction_of_a_higher_is_better_headline_is_respected(self):
        doc = sweep_doc()
        doc["measured"]["cells"][3]["values"] = [1.0, 1.0]
        self.assertTrue(any("jamming" in f for f in checks.check(doc)))

    def test_swapped_verdict_fails(self):
        doc = sweep_doc()
        # A defense the paper claims, measuring no effect.
        doc["measured"]["cells"][4]["values"] = [5.5, 6.3]
        self.assertTrue(any("measured no-effect" in f
                            for f in checks.check(doc)))

    def test_seed_dependent_claims_are_not_graded(self):
        doc = sweep_doc()
        doc["measured"]["cells"] += [
            sweep_cell("fake-maneuver", "none", False, [0.39, 0.39]),
            sweep_cell("fake-maneuver", "none", True, [13.1, 13.2]),
            sweep_cell("fake-maneuver", "roadside-units", True, [9.9, 9.9],
                       mitigates=True)]
        self.assertEqual(checks.check(doc), [])
        doc["measured"]["cells"][-1]["defense"] = "hybrid-communications"
        self.assertTrue(checks.check(doc))

    def test_unclaimed_cells_are_not_graded(self):
        doc = sweep_doc()
        doc["measured"]["cells"][5]["values"] = [9.0, 9.0]
        self.assertEqual(checks.check(doc), [])

    def test_a_sweep_without_baselines_fails(self):
        doc = sweep_doc()
        doc["measured"]["cells"] = [c for c in doc["measured"]["cells"]
                                    if c["defense"] != "none"]
        self.assertTrue(checks.check(doc))

    def test_verdict_bands(self):
        self.assertEqual(checks.verdict(True, 1.0, 11.0, 1.5), "MITIGATED")
        self.assertEqual(checks.verdict(True, 1.0, 11.0, 5.0), "partial")
        self.assertEqual(checks.verdict(True, 1.0, 11.0, 8.0), "no-effect")
        self.assertEqual(checks.verdict(False, 1.0, 0.3, 0.95), "MITIGATED")
        self.assertEqual(checks.verdict(True, 1.0, 1.01, 1.0), "-")

    def test_traced_values_must_match(self):
        doc = sweep_doc()
        doc["traced"] = copy.deepcopy(doc["measured"])
        doc["obs"] = {"counters": {"eval.scenarios": 14},
                      "timings_nondeterministic": {"timers": {}}}
        self.assertEqual(checks.check(doc), [])
        doc["traced"]["cells"][1]["value_bits"][0] = "5.500000000000001"
        self.assertTrue(checks.check(doc))

    def test_replication_count_must_match_eval_scenarios(self):
        doc = sweep_doc()
        doc["traced"] = copy.deepcopy(doc["measured"])
        doc["obs"] = {"counters": {"eval.scenarios": 13},
                      "timings_nondeterministic": {"timers": {}}}
        self.assertTrue(any("eval.scenarios" in f
                            for f in checks.check(doc)))


class TracedOutput(unittest.TestCase):
    def test_invalid_utf8_is_rejected(self):
        raw = b'{"timers": {"\x07\x10\xc8Z\x05/bench_scale.run_once": 1}}'
        with self.assertRaises(ValueError):
            checks.decode_document(raw)

    def test_valid_document_decodes(self):
        self.assertEqual(checks.decode_document(b'{"a": 1}'), {"a": 1})

    def test_garbage_timer_path_is_flagged(self):
        obs = {"timings_nondeterministic": {"timers": {
            "\u0007\u0010\u0006Z\u0005/bench_scale.run_once": {},
            "bench.eval.replication/eval.run_once/sim.run": {}}}}
        self.assertEqual(len(checks.timer_names(obs)), 1)

    def test_self_time_subtracts_direct_children_only(self):
        timers = {
            "a": {"calls": 1, "total_ms": 100.0},
            "a/b": {"calls": 4, "total_ms": 60.0},
            "a/b/c": {"calls": 8, "total_ms": 20.0},
            "c": {"calls": 2, "total_ms": 5.0},
        }
        spans = checks.self_times(timers)
        self.assertEqual(spans["a"][0], 1)
        self.assertAlmostEqual(spans["a"][2], 0.040)
        self.assertAlmostEqual(spans["b"][2], 0.040)
        self.assertEqual(spans["c"][0], 10)
        self.assertAlmostEqual(spans["c"][1], 0.025)
        self.assertAlmostEqual(spans["c"][2], 0.025)


if __name__ == "__main__":
    unittest.main()

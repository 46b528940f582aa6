"""Tests for the SPEC-EQUIV codegen equivalence checker.

Positive direction: every section-5 configuration and a 50-config
sampled sweep verify clean, in both the hook-free and the hooked
variant.  Negative direction: deliberately corrupted generated steppers
(wrong baked literal, stripped despecialization guard, dropped
finally-writeback, dead RNG draw site, rogue module ``random.*``, set
iteration, a stale or missing hook site) are each reported with the
right rule, a real line number, and the configuration name as
provenance.
"""

import pytest

from repro.analyze.passes import spec_equiv
from repro.config import figure4_configs, wsrs_rc, wsrs_rm
from repro.core.specialize import (
    generate_stepper_source,
    generated_source_filename,
)


def check(source, config, hooked=False):
    return spec_equiv.check_generated_source(source, config, hooked)


def rules_of(findings):
    return {finding.rule for finding in findings}


def assert_provenance(findings, config):
    assert findings, "corruption went undetected"
    for finding in findings:
        assert finding.path == generated_source_filename(config)
        assert finding.line >= 1
        assert finding.config == config.name
        assert finding.severity == "error"


@pytest.fixture(scope="module")
def rc512():
    config = wsrs_rc(512)
    return config, generate_stepper_source(config)


class TestCleanCodegen:
    @pytest.mark.parametrize(
        "config", figure4_configs(),
        ids=lambda config: config.name.replace(" ", "_"))
    def test_section5_configs_verify_clean(self, config):
        assert spec_equiv.check_config_codegen(config) == []
        assert spec_equiv.check_config_codegen(config, hooked=True) == []

    def test_sampled_sweep_verifies_clean(self):
        configs = spec_equiv.sampled_configs(50)
        assert len(configs) >= 50
        dirty = {
            (config.name, hooked): findings
            for config in configs for hooked in (False, True)
            for findings in [spec_equiv.check_config_codegen(config,
                                                             hooked)]
            if findings}
        assert dirty == {}

    def test_sampling_is_deterministic(self):
        first = [c.name for c in spec_equiv.sampled_configs(10)]
        second = [c.name for c in spec_equiv.sampled_configs(10)]
        assert first == second

    def test_sample_covers_the_config_space(self):
        configs = spec_equiv.sampled_configs(50)
        policies = {c.allocation_policy for c in configs}
        assert "random_commutative" in policies
        assert "random_monadic" in policies
        assert "round_robin" in policies
        assert {c.deadlock_policy for c in configs} >= {"moves"}
        assert {c.cluster.num_lsus for c in configs} == {1, 2}
        assert {c.rename_impl for c in configs} == {1, 2}


class TestCorruptions:
    def test_wrong_subset_divisor(self, rc512):
        config, source = rc512
        findings = check(source.replace("// 128", "// 64"), config)
        assert_provenance(findings, config)
        assert "SPEC-EQUIV-LITERAL" in rules_of(findings)
        assert any("128" in finding.message for finding in findings)

    def test_wrong_commit_width(self, rc512):
        config, source = rc512
        findings = check(source.replace("_n = 8", "_n = 999"), config)
        assert_provenance(findings, config)
        assert rules_of(findings) == {"SPEC-EQUIV-LITERAL"}
        assert any("commit width" in finding.message
                   for finding in findings)

    @pytest.mark.parametrize("site", ["_f(8)", "_f.idle(8, skipped)"])
    def test_wrong_impl1_staging_width(self, site):
        config = wsrs_rc(512, rename_impl=1)
        source = generate_stepper_source(config)
        assert site in source
        findings = check(source.replace(site, site.replace("8", "4")),
                         config)
        assert_provenance(findings, config)
        assert rules_of(findings) == {"SPEC-EQUIV-LITERAL"}
        assert any("staging width" in finding.message
                   for finding in findings)

    def test_impl1_staging_missing_or_misplaced(self, rc512):
        config = wsrs_rc(512, rename_impl=1)
        source = generate_stepper_source(config)
        stripped = source.replace("_f(8)", "_f()").replace(
            "_f.idle(8, skipped)", "_f.idle()")
        assert "SPEC-EQUIV-LITERAL" in rules_of(check(stripped, config))
        impl2_config, _ = rc512
        assert "SPEC-EQUIV-LITERAL" in rules_of(check(source, impl2_config))

    def test_wrong_rob_capacity(self, rc512):
        config, source = rc512
        corrupted = source.replace(f">= {config.rob_size}", ">= 64")
        findings = check(corrupted, config)
        assert_provenance(findings, config)
        assert "SPEC-EQUIV-LITERAL" in rules_of(findings)

    def test_missing_entry_guard(self, rc512):
        config, source = rc512
        guard_line = next(line for line in source.splitlines()
                          if "proc.sanitizer" in line)
        findings = check(source.replace(guard_line + "\n", ""), config)
        assert_provenance(findings, config)
        assert "SPEC-EQUIV-GUARD" in rules_of(findings)

    def test_missing_trip_guard_on_moves_config(self):
        config = wsrs_rm(384, deadlock_policy="moves")
        source = generate_stepper_source(config)
        corrupted = source.replace("tripped = True", "tripped = False")
        findings = check(corrupted, config)
        assert_provenance(findings, config)
        assert "SPEC-EQUIV-GUARD" in rules_of(findings)
        assert any("trip" in finding.message for finding in findings)

    def test_dropped_finally_writeback(self, rc512):
        config, source = rc512
        # Anchored on the newline so the inlined L1 probe's nested
        # try/except (deeper indentation) is left untouched.
        corrupted = source.replace("\n    try:\n", "\n    if True:\n") \
                          .replace("\n    finally:", "\n    if True:")
        findings = check(corrupted, config)
        assert_provenance(findings, config)
        assert "SPEC-EQUIV-WRITEBACK" in rules_of(findings)

    def test_partial_writeback(self, rc512):
        config, source = rc512
        corrupted = source.replace("        proc.cycle = cycle\n", "")
        findings = check(corrupted, config)
        assert_provenance(findings, config)
        assert "SPEC-EQUIV-WRITEBACK" in rules_of(findings)
        assert any("proc.cycle" in finding.message
                   for finding in findings)

    def test_dropped_frontend_writeback(self, rc512):
        config, source = rc512
        corrupted = source.replace(
            "        frontend._exhausted = fe_exhausted\n", "")
        findings = check(corrupted, config)
        assert_provenance(findings, config)
        assert "SPEC-EQUIV-WRITEBACK" in rules_of(findings)
        assert any("frontend._exhausted" in finding.message
                   for finding in findings)

    def test_wrong_l1_offset_shift(self, rc512):
        config, source = rc512
        l1_off = config.memory.l1.line_bytes.bit_length() - 1
        corrupted = source.replace(f"_addr >> {l1_off}",
                                   f"_addr >> {l1_off + 1}")
        findings = check(corrupted, config)
        assert_provenance(findings, config)
        assert "SPEC-EQUIV-LITERAL" in rules_of(findings)
        assert any("line-offset" in finding.message
                   for finding in findings)

    def test_dead_rng_draw_site(self, rc512):
        config, source = rc512
        findings = check(
            source.replace("_ab = rng_bits(1)", "_ab = 0"), config)
        assert_provenance(findings, config)
        assert "SPEC-EQUIV-RNG" in rules_of(findings)

    def test_rogue_module_random(self, rc512):
        config, source = rc512
        corrupted = source.replace(
            "    tripped = False\n",
            "    tripped = False\n    _noise = random.random()\n")
        findings = check(corrupted, config)
        assert_provenance(findings, config)
        assert "SPEC-EQUIV-PURITY" in rules_of(findings)

    def test_set_iteration(self, rc512):
        config, source = rc512
        corrupted = source.replace(
            "    tripped = False\n",
            "    tripped = False\n"
            "    for _x in {1, 2}:\n        pass\n")
        findings = check(corrupted, config)
        assert_provenance(findings, config)
        assert "SPEC-EQUIV-PURITY" in rules_of(findings)

    def test_unparseable_source(self, rc512):
        config, _ = rc512
        findings = check("def broken(:\n", config)
        assert_provenance(findings, config)
        assert rules_of(findings) == {"SPEC-EQUIV-GUARD"}

    def test_finding_lines_point_into_the_generated_source(self, rc512):
        config, source = rc512
        corrupted = source.replace("_n = 8", "_n = 999")
        (finding,) = check(corrupted, config)
        line = corrupted.splitlines()[finding.line - 1]
        assert "999" in line


@pytest.fixture(scope="module")
def hooked512():
    config = wsrs_rc(512)
    return config, generate_stepper_source(config, hooked=True)


class TestHookedCorruptions:
    def test_hooked_guard_must_not_refuse_hooks(self, hooked512):
        config, source = hooked512
        corrupted = source.replace(
            "    if proc._move_debt:\n",
            "    if proc.obs is not None or proc._move_debt:\n")
        findings = check(corrupted, config, hooked=True)
        assert_provenance(findings, config)
        assert rules_of(findings) == {"SPEC-EQUIV-GUARD"}
        assert any("_move_debt alone" in finding.message
                   for finding in findings)

    def test_stale_state_before_cycle_hooks(self, hooked512):
        config, source = hooked512
        # The in-loop writebacks are indented deeper than the finally's.
        corrupted = source.replace("                proc.cycle = cycle\n",
                                   "")
        findings = check(corrupted, config, hooked=True)
        assert_provenance(findings, config)
        assert rules_of(findings) == {"SPEC-EQUIV-WRITEBACK"}
        hooks = {finding.message.split("()")[0] for finding in findings}
        assert hooks == {"on_cycle_end", "on_cycle_skip"}
        assert all("proc.cycle" in finding.message for finding in findings)

    def test_update_between_writeback_and_hook(self, hooked512):
        config, source = hooked512
        hook = ("                for _h in hooks:\n"
                "                    _h.on_cycle_end(cycle)\n")
        corrupted = source.replace(
            hook, "                committed += 0\n" + hook)
        findings = check(corrupted, config, hooked=True)
        assert_provenance(findings, config)
        assert rules_of(findings) == {"SPEC-EQUIV-WRITEBACK"}

    def test_missing_hook_site(self, hooked512):
        config, source = hooked512
        corrupted = source.replace("_h.on_issue(uop, cycle)", "pass")
        findings = check(corrupted, config, hooked=True)
        assert_provenance(findings, config)
        assert rules_of(findings) == {"SPEC-EQUIV-HOOKS"}
        assert any("on_issue" in finding.message for finding in findings)

    def test_hook_call_in_the_hook_free_variant(self, hooked512):
        config, source = hooked512
        findings = check(source, config)
        assert_provenance(findings, config)
        assert "SPEC-EQUIV-HOOKS" in rules_of(findings)

"""Tests for the renamer (repro.rename.renamer)."""

import pytest

from repro.config import baseline_rr_256, ws_rr, wsrs_rc
from repro.errors import RenameError
from repro.rename.renamer import FP_FILE, INT_FILE, Renamer
from tests.conftest import ialu


def fp_add(dest, src1, src2):
    from repro.trace.model import OpClass, TraceInstruction

    return TraceInstruction(OpClass.FPADD, dest=dest, src1=src1, src2=src2)


class TestConventionalRenaming:
    def test_sources_read_current_mapping(self):
        renamer = Renamer(baseline_rr_256())
        before = renamer.lookup_global(1)
        psrc1, _, pdest, _ = renamer.rename(ialu(2, src1=1), cluster=0)
        assert psrc1 == before
        assert renamer.lookup_global(2) == pdest

    def test_raw_dependency_shares_physical_register(self):
        renamer = Renamer(baseline_rr_256())
        _, _, pdest, _ = renamer.rename(ialu(5), cluster=0)
        psrc1, _, _, _ = renamer.rename(ialu(6, src1=5), cluster=1)
        assert psrc1 == pdest

    def test_waw_gets_fresh_register(self):
        renamer = Renamer(baseline_rr_256())
        _, _, first, _ = renamer.rename(ialu(5), cluster=0)
        _, _, second, old = renamer.rename(ialu(5), cluster=0)
        assert first != second
        assert old == first

    def test_self_dependence_reads_old_mapping(self):
        renamer = Renamer(baseline_rr_256())
        before = renamer.lookup_global(3)
        psrc1, _, pdest, pold = renamer.rename(ialu(3, src1=3), cluster=0)
        assert psrc1 == before
        assert pold == before
        assert pdest != before

    def test_commit_free_recycles_register(self):
        config = baseline_rr_256()
        renamer = Renamer(config)
        free_before = renamer.free_registers(INT_FILE)[0]
        _, _, pdest, pold = renamer.rename(ialu(1), cluster=0)
        assert renamer.free_registers(INT_FILE)[0] == free_before - 1
        renamer.retire_write(pdest)
        renamer.commit_free(pold)
        assert renamer.free_registers(INT_FILE)[0] == free_before

    def test_register_exhaustion_reported_by_can_rename(self):
        config = baseline_rr_256()
        renamer = Renamer(config)
        free = renamer.free_registers(INT_FILE)[0]
        for index in range(free):
            assert renamer.can_rename(1, 0)
            renamer.rename(ialu(1), cluster=0)
        assert not renamer.can_rename(1, 0)

    def test_instructions_without_dest_always_rename(self):
        from tests.conftest import branch

        renamer = Renamer(baseline_rr_256())
        assert renamer.can_rename(None, 0)
        psrc1, psrc2, pdest, pold = renamer.rename(
            branch(1, taken=True), cluster=0)
        assert pdest is None and pold is None


class TestRegisterClassRouting:
    def test_fp_registers_use_the_fp_file(self):
        config = baseline_rr_256()
        renamer = Renamer(config)
        boundary = config.int_logical_registers
        _, _, pdest, _ = renamer.rename(
            fp_add(boundary + 1, boundary + 2, boundary + 3), cluster=0)
        assert pdest >= config.int_physical_registers

    def test_int_and_fp_files_are_independent(self):
        config = baseline_rr_256()
        renamer = Renamer(config)
        int_free = renamer.free_registers(INT_FILE)[0]
        renamer.rename(fp_add(81, 82, 83), cluster=0)
        assert renamer.free_registers(INT_FILE)[0] == int_free
        assert renamer.free_registers(FP_FILE)[0] \
            == config.fp_physical_registers \
            - config.fp_logical_registers - 1

    def test_total_global_registers(self):
        config = baseline_rr_256()
        renamer = Renamer(config)
        assert renamer.total_global_registers \
            == config.int_physical_registers + config.fp_physical_registers


class TestWriteSpecialization:
    def test_dest_lands_in_the_cluster_subset(self):
        config = ws_rr(512)
        renamer = Renamer(config)
        for cluster in range(4):
            _, _, pdest, _ = renamer.rename(ialu(1 + cluster),
                                            cluster=cluster)
            assert pdest // config.int_subset_size == cluster

    def test_subset_of_logical_tracks_writes(self):
        config = wsrs_rc(512)
        renamer = Renamer(config)
        renamer.rename(ialu(7), cluster=2)
        assert renamer.subset_of_logical(7) == 2
        renamer.rename(ialu(7), cluster=1)
        assert renamer.subset_of_logical(7) == 1

    def test_initial_architected_spread_is_round_robin(self):
        renamer = Renamer(ws_rr(512))
        subsets = [renamer.subset_of_logical(logical)
                   for logical in range(8)]
        assert subsets == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_per_subset_free_lists_deplete_independently(self):
        config = ws_rr(512)
        renamer = Renamer(config)
        before = renamer.free_registers(INT_FILE)
        renamer.rename(ialu(1), cluster=2)
        after = renamer.free_registers(INT_FILE)
        assert before[2] - after[2] == 1
        assert after[0] == before[0]

    def test_subset_exhaustion_blocks_only_that_cluster(self):
        config = ws_rr(512)
        renamer = Renamer(config)
        free = renamer.free_registers(INT_FILE)[3]
        for _ in range(free):
            renamer.rename(ialu(1), cluster=3)
        assert not renamer.can_rename(1, 3)
        assert renamer.can_rename(1, 0)


class TestRenamingImplementation1:
    def test_staging_is_filled_each_cycle(self):
        config = ws_rr(512, rename_impl=1)
        renamer = Renamer(config)
        assert not renamer.can_rename(1, 0)  # nothing staged yet
        renamer.begin_cycle()
        assert renamer.can_rename(1, 0)

    def test_unused_staged_registers_recycle_through_the_pipeline(self):
        config = ws_rr(512, rename_impl=1)
        renamer = Renamer(config)
        total_before = sum(renamer.free_registers(INT_FILE))
        renamer.begin_cycle()
        renamer.rename(ialu(1), cluster=0)  # uses one staged register
        renamer.end_cycle()
        # 4 subsets x 8 staged - 1 used are now in the recycling pipeline
        in_lists = sum(renamer.free_registers(INT_FILE))
        assert in_lists == total_before - 4 * config.front_width

        def conserved_total():
            free = sum(renamer.free_registers(INT_FILE))
            staged_or_recycling = sum(renamer.inaccessible_free(INT_FILE))
            return free + staged_or_recycling

        # Conservation: apart from the one register now mapped, every
        # integer register is in a free list, staged, or recycling -
        # no cycle sequence may leak registers.
        for _ in range(3 * config.recycle_pipeline_depth):
            assert conserved_total() == total_before - 1
            renamer.begin_cycle()
            renamer.end_cycle()
        # In steady state the recycler holds exactly one cycle's worth of
        # staged-and-unused registers per pipeline stage.
        recycling = sum(flist.in_flight
                        for flist in renamer.int_class.free_lists)
        assert recycling == 4 * config.front_width \
            * config.recycle_pipeline_depth

    def test_commit_free_goes_through_the_recycler(self):
        config = ws_rr(512, rename_impl=1)
        renamer = Renamer(config)
        renamer.begin_cycle()
        _, _, pdest, pold = renamer.rename(ialu(1), cluster=0)
        renamer.end_cycle()
        renamer.retire_write(pdest)
        subset = pold // config.int_subset_size
        before = renamer.free_registers(INT_FILE)[subset]
        renamer.commit_free(pold)
        # not immediately available
        assert renamer.free_registers(INT_FILE)[subset] == before

    def test_rename_without_staged_register_is_a_caller_bug(self):
        renamer = Renamer(ws_rr(512, rename_impl=1))
        with pytest.raises(RenameError, match="staged"):
            renamer.rename(ialu(1), cluster=0)


class TestAccounting:
    def test_renamed_counter(self):
        renamer = Renamer(baseline_rr_256())
        renamer.rename(ialu(1), cluster=0)
        renamer.rename(ialu(2, src1=1), cluster=1)
        assert renamer.renamed == 2

    def test_reg_stall_counter(self):
        renamer = Renamer(ws_rr(512))
        free = renamer.free_registers(INT_FILE)[0]
        for _ in range(free):
            renamer.rename(ialu(1), cluster=0)
        renamer.can_rename(1, 0)
        assert renamer.reg_stalls == 1

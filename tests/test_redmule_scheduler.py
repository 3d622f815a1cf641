"""Tests for the tiling scheduler."""

from collections import Counter
from itertools import groupby

import pytest

from repro.redmule.config import RedMulEConfig
from repro.redmule.job import MatmulJob
from repro.redmule.scheduler import TileSchedule


def make_schedule(m, n, k, config=None):
    config = config or RedMulEConfig.reference()
    job = MatmulJob(x_addr=0, w_addr=0x1000, z_addr=0x2000, m=m, n=n, k=k)
    return TileSchedule(job, config)


class TestTileGrid:
    def test_exact_fit(self):
        schedule = make_schedule(16, 32, 32)
        assert schedule.tiles_m == 2
        assert schedule.tiles_k == 2
        assert schedule.n_tiles == 4
        assert schedule.n_chunks == 8
        assert len(schedule.tiles()) == 4

    def test_edge_tiles_are_clipped(self):
        schedule = make_schedule(13, 10, 20)
        assert schedule.tiles_m == 2 and schedule.tiles_k == 2
        tiles = schedule.tiles()
        assert tiles[0].rows == 8 and tiles[0].cols == 16
        assert tiles[1].rows == 8 and tiles[1].cols == 4
        assert tiles[2].rows == 5 and tiles[2].cols == 16
        assert tiles[3].rows == 5 and tiles[3].cols == 4

    def test_tile_origins(self):
        schedule = make_schedule(16, 8, 32)
        tiles = schedule.tiles()
        assert (tiles[0].m0, tiles[0].k0) == (0, 0)
        assert (tiles[1].m0, tiles[1].k0) == (0, 16)
        assert (tiles[2].m0, tiles[2].k0) == (8, 0)

    def test_single_tiny_tile(self):
        schedule = make_schedule(1, 1, 1)
        assert schedule.n_tiles == 1
        tile = schedule.tile(0)
        assert tile.rows == 1 and tile.cols == 1

    def test_tile_index_bounds(self):
        schedule = make_schedule(8, 8, 16)
        with pytest.raises(IndexError):
            schedule.tile(1)
        with pytest.raises(IndexError):
            schedule.tile(-1)

    def test_n_blocks_covers_padded_inner_dimension(self):
        # N=20 -> 5 chunks of 4 -> 20 padded elements -> 2 blocks of 16.
        schedule = make_schedule(8, 20, 16)
        assert schedule.n_chunks == 5
        assert schedule.n_blocks == 2



class TestRowBlocks:
    """``row_blocks`` is the tile grid's row heights in closed form."""

    @pytest.mark.parametrize("m,k", [
        (1, 1),      # single tile
        (8, 16),     # single tile, exact in M and K
        (5, 3),      # single tile, M < L and K < elements_per_line
        (13, 20),    # ragged M and K
        (16, 32),    # exact M and K
        (13, 32),    # ragged M, exact K
        (16, 20),    # exact M, ragged K
        (3, 100),    # one ragged tile row, many tiles
        (64, 5),     # one tile column, all full height
        (65, 5),     # one tile column, one-row last tile
    ])
    def test_matches_tile_rows(self, m, k):
        schedule = make_schedule(m, 8, k)
        rows = [tile.rows for tile in schedule.tiles()]
        blocks = schedule.row_blocks()
        assert Counter(dict(blocks)) == Counter(rows)
        # The blocks are the runs of equal height, in tile order.
        assert list(blocks) == [(height, len(list(run)))
                                for height, run in groupby(rows)]
        assert sum(count for _, count in blocks) == schedule.n_tiles

    def test_non_reference_geometry(self):
        config = RedMulEConfig(height=2, length=4, pipeline_regs=1)
        schedule = make_schedule(9, 5, 9, config)
        assert schedule.row_blocks() == ((4, 6), (1, 3))


class TestAccounting:
    def test_tile_macs(self):
        schedule = make_schedule(13, 10, 20)
        tiles = schedule.tiles()
        total = sum(schedule.tile_macs(tile) for tile in tiles)
        assert total == 13 * 10 * 20

    def test_issued_macs_includes_padding(self):
        schedule = make_schedule(8, 16, 16)
        # One tile, 4 chunks, no padding: issued == useful.
        assert schedule.issued_macs() == 8 * 16 * 16

    def test_issued_macs_padding_overhead(self):
        schedule = make_schedule(1, 1, 1)
        # The array still issues a full tile: L * block_k * H lanes.
        config = RedMulEConfig.reference()
        assert schedule.issued_macs() == config.length * config.block_k * config.height
        assert schedule.issued_macs() > schedule.job.total_macs

    def test_different_geometry(self):
        config = RedMulEConfig(height=2, length=4, pipeline_regs=1)
        schedule = make_schedule(9, 5, 9, config)
        assert schedule.tiles_m == 3          # ceil(9 / 4)
        assert schedule.tiles_k == 3          # ceil(9 / 4)  (block_k = 4)
        assert schedule.n_chunks == 3         # ceil(5 / 2)

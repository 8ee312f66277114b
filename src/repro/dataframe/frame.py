"""The distributed DataFrame: shuffle-backed sort and groupby.

Every shuffle-backed operator is a handful of lines over
:mod:`repro.shuffle` -- the point the paper makes about DataFrame engines
that instead rebuild shuffle internally.  Operators are lazy in the Ray
sense: they submit the task graph and return a new frame of refs
immediately; materialisation happens on ``collect``/``head``/``count``.

All methods that submit or fetch must be called from inside ``rt.run``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.futures import ObjectRef, Runtime
from repro.plan import JobShape, ShuffleExpr, ShufflePlan, planner_for_runtime
from repro.shuffle import ShuffleOps, submit
from repro.shuffle.common import worker_nodes
from repro.dataframe.block import FrameBlock, _agg_column_name


class DistributedFrame:
    """A table partitioned across the cluster as FrameBlock objects."""

    def __init__(
        self, rt: Runtime, partitions: List[ObjectRef], column_names: List[str]
    ) -> None:
        if not partitions:
            raise ValueError("a frame needs at least one partition")
        self.rt = rt
        self.partitions = list(partitions)
        self.column_names = list(column_names)

    # -- construction ------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        rt: Runtime,
        data: Dict[str, np.ndarray],
        num_partitions: int,
    ) -> "DistributedFrame":
        """Distribute in-memory columns across the cluster (blocking)."""
        if num_partitions < 1:
            raise ValueError("need at least one partition")
        whole = FrameBlock(data)
        pieces = np.array_split(np.arange(whole.num_rows), num_partitions)
        nodes = worker_nodes(rt)
        stage = rt.remote(lambda block: block)
        refs = [
            stage.options(node=nodes[i % len(nodes)]).remote(whole.take(piece))
            for i, piece in enumerate(pieces)
        ]
        rt.wait(refs, num_returns=len(refs))
        return cls(rt, refs, whole.column_names)

    # -- introspection ---------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def collect(self) -> FrameBlock:
        """Materialise the whole frame at the driver (blocking)."""
        return FrameBlock.concat(self.rt.get(self.partitions))

    def count(self) -> int:
        """Total row count (blocking)."""
        counter = self.rt.remote(lambda block: block.num_rows)
        return sum(self.rt.get([counter.remote(p) for p in self.partitions]))

    def head(self, n: int = 10) -> FrameBlock:
        """The first rows of the first partition (blocking)."""
        first = self.rt.get(self.partitions[0])
        return first.take(np.arange(min(n, first.num_rows)))

    def total_bytes(self) -> int:
        """Summed partition sizes in bytes (blocking)."""
        sizer = self.rt.remote(lambda block: block.size_bytes)
        return sum(self.rt.get([sizer.remote(p) for p in self.partitions]))

    # -- embarrassingly parallel operators -----------------------------------
    def map_partitions(
        self, fn: Callable[[FrameBlock], FrameBlock], column_names: Optional[List[str]] = None
    ) -> "DistributedFrame":
        """Apply ``fn`` to every partition independently (lazy)."""
        task = self.rt.remote(fn)
        refs = [task.remote(p) for p in self.partitions]
        return DistributedFrame(
            self.rt, refs, column_names or self.column_names
        )

    def filter(self, column: str, predicate: Callable[[np.ndarray], np.ndarray]) -> "DistributedFrame":
        """Keep rows where ``predicate(values)`` is True."""
        return self.map_partitions(
            lambda block: block.filter_rows(predicate(block[column]))
        )

    def with_column(
        self, name: str, fn: Callable[[FrameBlock], np.ndarray]
    ) -> "DistributedFrame":
        """Add a column computed per partition by ``fn(block)`` (lazy)."""
        new_names = self.column_names + ([name] if name not in self.column_names else [])
        return self.map_partitions(
            lambda block: block.with_column(name, fn(block)), new_names
        )

    # -- shuffle-backed operators ----------------------------------------------
    def sort_values(
        self, column: str, num_partitions: Optional[int] = None
    ) -> "DistributedFrame":
        """Globally sort by ``column`` via a range-partitioned shuffle."""
        out_parts = num_partitions or self.num_partitions
        bounds = self._sample_bounds(column, out_parts)

        def sort_map(block: FrameBlock) -> List[FrameBlock]:
            return [
                piece.sort_by(column)
                for piece in block.range_partition(column, bounds)
            ]

        def sort_reduce(*pieces: FrameBlock) -> FrameBlock:
            return FrameBlock.concat(list(pieces)).sort_by(column)

        refs = self._shuffle(sort_map, sort_reduce, out_parts)
        return DistributedFrame(self.rt, refs, self.column_names)

    def groupby_agg(
        self,
        key: str,
        aggregations: Dict[str, str],
        num_partitions: Optional[int] = None,
    ) -> "DistributedFrame":
        """Group by ``key`` with per-column aggregations.

        Map-side combining: each map pre-aggregates its partition before
        the shuffle, so only group summaries cross the network -- the
        classic combiner optimisation, expressed at the application
        level.  ``mean`` decomposes into sum + count.
        """
        if not aggregations:
            raise ValueError("groupby_agg needs at least one aggregation")
        out_parts = num_partitions or self.num_partitions
        plan: Dict[str, str] = {}
        finishers: List[tuple] = []
        for col, op in aggregations.items():
            if op == "mean":
                plan[col] = "sum"
                finishers.append((col, "mean"))
            elif op in ("sum", "min", "max", "count"):
                plan[col] = op
                finishers.append((col, op))
            else:
                raise ValueError(f"unsupported aggregation {op!r}")
        needs_count = any(op in ("mean", "count") for _, op in finishers)
        recombine = {
            _agg_column_name(col, op): op for col, op in plan.items()
        }
        # Row counts ride on the key column so they never collide with a
        # value column that is also being summed (e.g. for mean).
        count_source = key
        if needs_count:
            recombine[_agg_column_name(count_source, "count")] = "sum"

        def agg_map(block: FrameBlock) -> List[FrameBlock]:
            partial = block.groupby_agg(
                key,
                {**plan, **({count_source: "count"} if needs_count else {})},
            )
            return partial.hash_partition(key, out_parts)

        def agg_reduce(*pieces: FrameBlock) -> FrameBlock:
            merged = FrameBlock.concat(list(pieces))
            # Re-aggregate the partial results: sums add, mins min, ...
            relabelled = merged.groupby_agg(
                key,
                {name: ("sum" if op in ("sum",) else op) for name, op in recombine.items()},
            )
            # groupby_agg suffixes again; strip back to single suffix.
            out = {key: relabelled[key]}
            for name, op in recombine.items():
                out[name] = relabelled[
                    _agg_column_name(name, "sum" if op == "sum" else op)
                ]
            return FrameBlock(out)

        refs = self._shuffle(agg_map, agg_reduce, out_parts)
        final_names = self._finish_groupby(refs, key, finishers, plan, needs_count)
        return final_names

    def _finish_groupby(self, refs, key, finishers, plan, needs_count):
        count_name = _agg_column_name(key, "count")

        def finish(block: FrameBlock) -> FrameBlock:
            out: Dict[str, np.ndarray] = {key: block[key]}
            for col, op in finishers:
                if op == "mean":
                    sums = block[_agg_column_name(col, "sum")]
                    counts = block[count_name]
                    out[_agg_column_name(col, "mean")] = sums / np.maximum(counts, 1)
                elif op == "count":
                    out[_agg_column_name(col, "count")] = block[count_name]
                else:
                    out[_agg_column_name(col, op)] = block[
                        _agg_column_name(col, op)
                    ]
            return FrameBlock(out)

        task = self.rt.remote(finish)
        out_refs = [task.remote(r) for r in refs]
        names = [key] + [_agg_column_name(c, o) for c, o in finishers]
        return DistributedFrame(self.rt, out_refs, names)

    def join(
        self,
        other: "DistributedFrame",
        on: str,
        num_partitions: Optional[int] = None,
        suffix: str = "_right",
        broadcast: bool = False,
    ) -> "DistributedFrame":
        """Distributed inner equi-join: hash-shuffle both sides into
        aligned buckets, then join each bucket pair locally.

        Two shuffles plus a zip of the bucket columns -- the shape every
        shuffle-backed join engine uses, expressed in a dozen lines over
        the library.  With ``broadcast=True`` the right side is
        materialised whole and shipped to every left partition instead
        (no shuffle at all) -- the classic optimisation for small
        dimension tables.
        """
        if other.rt is not self.rt:
            raise ValueError("frames must share a runtime")
        if broadcast:
            whole_right = FrameBlock.concat(self.rt.get(other.partitions))
            joiner = self.rt.remote(
                lambda lb: lb.join(whole_right, on, suffix=suffix)
            )
            refs = [joiner.remote(p) for p in self.partitions]
            right_names = [
                name if name not in self.column_names else name + suffix
                for name in other.column_names
                if name != on
            ]
            return DistributedFrame(
                self.rt, refs, self.column_names + right_names
            )
        out_parts = num_partitions or max(
            self.num_partitions, other.num_partitions
        )

        def bucketise(block: FrameBlock) -> List[FrameBlock]:
            return block.hash_partition(on, out_parts)

        def gather(*pieces: FrameBlock) -> FrameBlock:
            return FrameBlock.concat(list(pieces))

        # One planned expression covers both sides: the join is a single
        # exchange of left+right bytes, so both shuffles execute the
        # variant one lowering chose (previously both were hardwired to
        # simple_shuffle regardless of size).
        plan = self._plan_shuffle(
            out_parts,
            label="join",
            total_bytes=self.total_bytes() + other.total_bytes(),
            num_maps=self.num_partitions + other.num_partitions,
        )
        left = self._run_shuffle(
            plan, self.partitions, bucketise, gather, out_parts
        )
        right = self._run_shuffle(
            plan, other.partitions, bucketise, gather, out_parts
        )
        joiner = self.rt.remote(
            lambda lb, rb: lb.join(rb, on, suffix=suffix)
        )
        refs = [joiner.remote(l, r) for l, r in zip(left, right)]
        right_names = [
            name if name not in self.column_names else name + suffix
            for name in other.column_names
            if name != on
        ]
        return DistributedFrame(
            self.rt, refs, self.column_names + right_names
        )

    def repartition(self, num_partitions: int) -> "DistributedFrame":
        """Rebalance rows into ``num_partitions`` even partitions."""
        if num_partitions < 1:
            raise ValueError("need at least one partition")

        def scatter(block: FrameBlock) -> List[FrameBlock]:
            pieces = np.array_split(np.arange(block.num_rows), num_partitions)
            return [block.take(piece) for piece in pieces]

        refs = self._shuffle(scatter, lambda *b: FrameBlock.concat(list(b)),
                             num_partitions, label="repartition")
        return DistributedFrame(self.rt, refs, self.column_names)

    # -- internals ----------------------------------------------------------
    def _plan_shuffle(
        self,
        num_reduces: int,
        label: str = "shuffle",
        total_bytes: Optional[int] = None,
        num_maps: Optional[int] = None,
    ) -> ShufflePlan:
        """Lower this frame's exchange through the plan surface (§7).

        Builds an abstract :class:`~repro.plan.ShuffleExpr` and lowers
        it through the runtime's planner; the empirical two-way rule
        picks one of the two variants the frame executes.
        """
        expr = ShuffleExpr(
            shape=JobShape(
                total_bytes=(
                    self.total_bytes() if total_bytes is None else total_bytes
                ),
                num_maps=(
                    self.num_partitions if num_maps is None else num_maps
                ),
                num_reduces=num_reduces,
            ),
            label=label,
        )
        return planner_for_runtime(self.rt).plan(expr)

    def _run_shuffle(
        self, plan: ShufflePlan, partitions: List[ObjectRef],
        map_fn: Callable[[FrameBlock], List[FrameBlock]],
        reduce_fn: Callable[..., FrameBlock], num_reduces: int,
    ) -> List[ObjectRef]:
        """Execute a lowered plan over ``partitions``.  push's per-reducer
        merge is a concat: every reduce function here re-reduces."""
        ops = ShuffleOps(
            map_fn, reduce_fn, merge=lambda *blocks: FrameBlock.concat(list(blocks))
        )
        return submit(self.rt, plan.variant, partitions, ops, num_reduces)

    def _shuffle(
        self,
        map_fn: Callable[[FrameBlock], List[FrameBlock]],
        reduce_fn: Callable[..., FrameBlock],
        num_reduces: int,
        label: str = "shuffle",
    ) -> List[ObjectRef]:
        """Plan and run the best shuffle for the frame's size (§7)."""
        plan = self._plan_shuffle(num_reduces, label=label)
        return self._run_shuffle(
            plan, self.partitions, map_fn, reduce_fn, num_reduces
        )

    def _sample_bounds(self, column: str, num_out: int) -> List[Any]:
        sampler = self.rt.remote(
            lambda block: block[column][:: max(1, block.num_rows // 50)].copy()
        )
        samples = np.concatenate(
            self.rt.get([sampler.remote(p) for p in self.partitions])
        )
        samples.sort()
        if samples.size == 0:
            return []
        bounds = [
            samples[samples.size * i // num_out] for i in range(1, num_out)
        ]
        # Strictly ascending for range_partition; collapse duplicates.
        out: List[Any] = []
        for bound in bounds:
            if not out or bound > out[-1]:
                out.append(bound)
        return out

    def __repr__(self) -> str:
        return (
            f"DistributedFrame(partitions={self.num_partitions}, "
            f"columns={self.column_names})"
        )

"""Synthetic Wikipedia-pageviews stream (the Fig 5 workload).

The paper aggregates 6 months of hourly page-view statistics (1 TB) to
rank top pages by language.  The statistical property online aggregation
exploits is that every hour is a noisy draw from the same heavy-tailed
(Zipf) popularity distribution, so partial sums converge to the final
ranking quickly.  We generate exactly that: per-language Zipf base
popularity plus hourly multiplicative noise, with declared block sizes
matching the real dataset's volume.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.common.rng import seeded_rng


class PageviewBlock:
    """One hour of view counts: language -> counts over top pages."""

    __slots__ = ("hour", "counts", "declared_bytes")

    def __init__(
        self, hour: int, counts: Dict[str, np.ndarray], declared_bytes: int
    ) -> None:
        self.hour = hour
        self.counts = counts
        self.declared_bytes = declared_bytes

    @property
    def size_bytes(self) -> int:
        return self.declared_bytes

    def __repr__(self) -> str:
        return f"PageviewBlock(hour={self.hour}, langs={len(self.counts)})"


class PageviewDataset:
    """Generator for the hourly stream."""

    def __init__(
        self,
        num_hours: int = 168,
        languages: int = 8,
        pages_per_language: int = 500,
        zipf_exponent: float = 1.3,
        hourly_noise: float = 0.3,
        block_bytes: int = 256 * 10**6,
        views_per_hour: int = 1_000_000,
        seed: int = 0,
    ) -> None:
        if num_hours < 1 or languages < 1 or pages_per_language < 2:
            raise ValueError("degenerate dataset")
        self.num_hours = num_hours
        self.languages = [f"lang{i:02d}" for i in range(languages)]
        self.pages_per_language = pages_per_language
        self.zipf_exponent = zipf_exponent
        self.hourly_noise = hourly_noise
        self.block_bytes = block_bytes
        self.views_per_hour = views_per_hour
        self.seed = seed
        ranks = np.arange(1, pages_per_language + 1, dtype=np.float64)
        base = ranks**-zipf_exponent
        self._base_popularity = base / base.sum()

    @property
    def total_bytes(self) -> int:
        return self.num_hours * self.block_bytes

    def hourly_block(self, hour: int) -> PageviewBlock:
        """The view counts for one hour (deterministic per hour)."""
        if not 0 <= hour < self.num_hours:
            raise ValueError(f"hour {hour} out of range")
        counts: Dict[str, np.ndarray] = {}
        per_lang_views = self.views_per_hour // len(self.languages)
        for lang_index, lang in enumerate(self.languages):
            rng = seeded_rng(self.seed, "pageviews", hour, lang_index)
            noise = rng.lognormal(mean=0.0, sigma=self.hourly_noise,
                                  size=self.pages_per_language)
            popularity = self._base_popularity * noise
            popularity /= popularity.sum()
            counts[lang] = rng.multinomial(per_lang_views, popularity).astype(
                np.float64
            )
        return PageviewBlock(hour, counts, self.block_bytes)

    def final_distribution(self) -> Dict[str, np.ndarray]:
        """The exact end-of-job per-language view shares (ground truth)."""
        totals: Dict[str, np.ndarray] = {
            lang: np.zeros(self.pages_per_language) for lang in self.languages
        }
        for hour in range(self.num_hours):
            block = self.hourly_block(hour)
            for lang, counts in block.counts.items():
                totals[lang] += counts
        return {
            lang: counts / counts.sum() for lang, counts in totals.items()
        }

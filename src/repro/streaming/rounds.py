"""The round driver, re-exported from :mod:`repro.shuffle.streaming`."""

# Kept because the end-to-end benchmark's tracer wraps
# ``repro.streaming.rounds.RoundDriver.submit_round``/``finish`` as its
# ``streaming`` layer.
from repro.shuffle.streaming import RoundDriver

__all__ = ["RoundDriver"]

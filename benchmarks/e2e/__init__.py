"""End-to-end benchmark with a per-layer ledger; see ``README.md``."""

"""End-to-end and per-layer benchmark for coroweave (see README.md)."""

"""End-to-end and per-layer benchmark for lexmv; see README.md."""

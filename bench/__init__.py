"""Seeded end-to-end and per-layer benchmark of `stellar` (see README.md)."""

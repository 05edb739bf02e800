"""End-to-end benchmark of the HerQules reproduction (see README.md)."""

"""End-to-end benchmark of the XSP reproduction (see README.md)."""

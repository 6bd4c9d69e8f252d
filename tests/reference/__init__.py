"""Per-record reference implementations the tests compare the shipping code
against byte for byte.  Nothing under ``src/`` imports them."""

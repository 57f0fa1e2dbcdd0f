"""Empty: kept only because perfbench's spans.LAYERS names this module."""

__all__ = []

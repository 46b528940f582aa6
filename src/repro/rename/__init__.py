"""Register renaming: map tables, free lists, WS/WSRS renamers."""

from repro.rename.freelist import FreeList, RotatingFreeList
from repro.rename.maptable import MapTable
from repro.rename.renamer import FP_FILE, INT_FILE, Renamer

__all__ = ["FP_FILE", "FreeList", "INT_FILE", "MapTable", "Renamer",
           "RotatingFreeList"]

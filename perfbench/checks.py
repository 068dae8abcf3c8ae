"""Checks made apart from the program.

Counts come from the manifests in ``inputs``, query rows from
``harness/oracle.py`` over full site dumps, connected components from a
plain breadth-first labelling, and the identity scan from the raw frames on
the tap.
"""

from __future__ import annotations

import base64
import binascii
import json
import re
import sys
from collections import deque

import numpy as np

from .simclient import frame_payload


class Checker:
    """Collects failed checks; a run is correct when none failed."""

    def __init__(self) -> None:
        self.failures: list = []
        self.checked = 0

    def expect(self, ok: bool, what: str) -> bool:
        self.checked += 1
        if not ok:
            self.failures.append(what)
            if len(self.failures) <= 20:
                print(f"CHECK FAILED: {what}", file=sys.stderr)
        return ok

    @property
    def correct(self) -> bool:
        return not self.failures


def manifest_count(entries: list, target: str, match) -> int:
    """Rows a query must return: matching images, or their distinct patients."""
    hits = [e for e in entries if match(e)]
    if target == "images":
        return len(hits)
    return len({(e["site"], e["raw_id"]) for e in hits})


# --- microcalcification reference -------------------------------------------------------

def _sizes_bfs(mask: np.ndarray) -> list:
    height, width = mask.shape
    todo = {(int(y), int(x)) for y, x in zip(*np.nonzero(mask))}
    sizes = []
    while todo:
        queue = deque([todo.pop()])
        size = 0
        while queue:
            y, x = queue.popleft()
            size += 1
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    near = (y + dy, x + dx)
                    if near in todo:
                        todo.remove(near)
                        queue.append(near)
        sizes.append(size)
    return sizes


def component_count(pixels: np.ndarray, threshold: int, min_area: int = 1,
                    max_area: int = 64) -> int:
    """8-connected components of pixels > threshold with area in range."""
    sizes = _sizes_bfs(pixels > threshold)
    return sum(1 for size in sizes if min_area <= size <= max_area)


# --- identity scan -------------------------------------------------------------------

_B64_RE = re.compile(r"^[A-Za-z0-9+/]+={0,2}$")


def _strings(value):
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _strings(item)
    elif isinstance(value, list):
        for item in value:
            yield from _strings(item)


def frame_haystack(frame: dict) -> bytes:
    """A frame's payload plus every base64 string inside it, decoded.

    The file body of an ``Add`` request is left out: that is the client
    handing its own raw file to its own site, raw by definition.
    """
    payload = frame_payload(frame)
    message = json.loads(payload)
    upload = message.get("body", {}).get("file_b64") if message.get("op") == "Add" else None
    parts = [payload]
    for text in _strings(message):
        if text is upload or len(text) < 16 or len(text) % 4 or not _B64_RE.match(text):
            continue
        try:
            parts.append(base64.b64decode(text, validate=True))
        except (binascii.Error, ValueError):
            pass
    return b"\x00".join(parts)


def leaked(frames: list, needles: list) -> list:
    """The needles found on any of the frames."""
    hay = b"\x00".join(frame_haystack(frame) for frame in frames)
    return [needle for needle in needles if needle in hay]

"""Manifest sidecars and exact-length reads shared by the binary checkpoints."""

import json
import os

from .errors import ValidationError


def manifest_path(checkpoint_path) -> str:
    return f"{checkpoint_path}.manifest.json"


def write_manifest(checkpoint_path, manifest: dict) -> None:
    with open(manifest_path(checkpoint_path), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(checkpoint_path) -> dict:
    with open(manifest_path(checkpoint_path), "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_exact(fh, size: int, path) -> bytes:
    """The next `size` bytes of a checkpoint; fewer left means it is truncated.

    The size comes from the file's own header, so it is checked against the
    bytes left before anything that large is allocated.
    """
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValidationError(f"{path}: truncated checkpoint")
    return fh.read(size)


def expect_end(fh, path) -> None:
    """Refuse a checkpoint with bytes past what its header describes."""
    if fh.read(1):
        raise ValidationError(f"{path}: trailing bytes after the checkpoint")

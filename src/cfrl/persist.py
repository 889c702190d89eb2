"""Manifest sidecars, atomic writes and exact-length reads shared by the
binary checkpoints."""

import json
import os
import zipfile
from contextlib import contextmanager

import numpy as np

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


@contextmanager
def atomic_write(path):
    """Binary file handle whose contents replace `path` only once the block
    completes and they are on disk; on an exception the previous file at
    `path` stays as it was."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_npz(path, arrays: dict) -> None:
    """Write `arrays` atomically to `path` as an uncompressed archive that
    np.load reads.

    Each array goes into its zip member in one write from its own buffer;
    np.savez would copy it out in 16 MiB chunks first, because a zip member
    is not a real file.
    """
    with atomic_write(path) as fh, zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED, allowZip64=True) as zf:
        for name, array in arrays.items():
            array = np.asarray(array, order="C")
            with zf.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(
                    member, np.lib.format.header_data_from_array_1_0(array))
                member.write(array.reshape(-1).view(np.uint8))

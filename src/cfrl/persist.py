"""The one on-disk format of every binary artifact, and manifest sidecars.

Snapshots, checkpoints and archives are uncompressed .npz files of named
arrays. save_npz writes them atomically; load_npz reads them back exactly or
raises ValidationError: the zip CRC-32 of each member catches a damaged
payload, and the checks below catch everything else. The text outputs
(reports, logs, traces, resolved configs) are written atomically too, through
atomic_text.
"""

import io
import json
import math
import os
import zipfile
from contextlib import contextmanager

import numpy as np

from .errors import ValidationError

_ZIP_HEAD = b"PK\x03\x04"    # local file header: the first bytes of an archive
_ZIP_END = b"PK\x05\x06"     # end of central directory record: the last 22 bytes
_END_SIZE = 22
_END_SEARCH = _END_SIZE + 0xFFFF    # the record plus the longest zip comment
_CHUNK = 1 << 18                    # bytes read per call when filling an array

# What zipfile and the .npy header parser raise on a damaged archive.
_DAMAGE = (OSError, EOFError, ValueError, NotImplementedError, RuntimeError, zipfile.BadZipFile)


def manifest_path(checkpoint_path) -> str:
    return f"{checkpoint_path}.manifest.json"


def write_manifest(checkpoint_path, manifest: dict) -> None:
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    with atomic_write(manifest_path(checkpoint_path)) as fh:
        fh.write(text.encode("utf-8"))


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


@contextmanager
def atomic_text(path, newline=None):
    """UTF-8 text handle on atomic_write, translating newlines as
    open(path, "w", newline=newline) does."""
    with atomic_write(path) as fh:
        text = io.TextIOWrapper(fh, encoding="utf-8", newline=newline)
        try:
            yield text
        finally:
            text.detach()  # flushes; atomic_write closes the file


def save_npz(path, arrays: dict) -> None:
    """Write `arrays` atomically to `path` as an uncompressed archive that
    load_npz (and np.load) reads.

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


def is_npz(path) -> bool:
    """True when the file starts as every save_npz archive does."""
    try:
        with open(path, "rb") as fh:
            return fh.read(len(_ZIP_HEAD)) == _ZIP_HEAD
    except OSError:
        return False


def load_npz(path, kind: str, names, earlier: dict | None = None) -> dict:
    """The arrays of a save_npz archive holding exactly the members `names`.

    `kind` names the artifact in error messages. Object arrays are refused,
    so no pickle is ever loaded. `earlier` maps a member that an earlier
    layout of the artifact held and this one does not, or that this layout
    added, to the reason a file in that earlier layout is refused.

    Raises:
        ValidationError: naming the file, when it is not a zip archive, is
            truncated, has bytes after its end record, holds other members,
            or is damaged in any way zipfile or the .npy header shows.
    """
    with open(path, "rb") as fh:
        _check_ends(fh, path, kind)
        try:
            with zipfile.ZipFile(fh) as zf:
                found = sorted(zf.namelist())
                expected = sorted(f"{name}.npy" for name in names)
                if found != expected:
                    for name, reason in (earlier or {}).items():
                        if (f"{name}.npy" in found) != (name in names):
                            raise ValidationError(f"{path}: {reason}")
                    raise ValidationError(
                        f"{path}: unreadable {kind}: members {found}, expected {expected}")
                return {name: _read_array(zf, zf.getinfo(f"{name}.npy")) for name in names}
        except _DAMAGE as exc:
            raise ValidationError(f"{path}: unreadable {kind} ({type(exc).__name__}: {exc})") from None


def _check_ends(fh, path, kind: str) -> None:
    """Refuse a file that does not start as a zip archive or whose end record
    is missing, cut short or followed by more bytes."""
    if fh.read(len(_ZIP_HEAD)) != _ZIP_HEAD:
        raise ValidationError(f"{path}: not a {kind} (not a zip archive)")
    size = fh.seek(0, os.SEEK_END)
    start = fh.seek(max(0, size - _END_SEARCH))
    end = fh.read().rfind(_ZIP_END)
    if end < 0 or start + end + _END_SIZE > size:
        raise ValidationError(f"{path}: truncated {kind} (not a zip archive without its end record)")
    if start + end + _END_SIZE < size:
        raise ValidationError(f"{path}: trailing bytes after the {kind}'s zip end record")
    fh.seek(0)


def _read_array(zf: zipfile.ZipFile, info: zipfile.ZipInfo) -> np.ndarray:
    """One stored .npy member, read to its last byte so its CRC-32 is checked.

    The array is allocated only once its header's shape and dtype account
    for exactly the bytes the member holds.
    """
    if info.compress_type != zipfile.ZIP_STORED or info.compress_size != info.file_size:
        raise ValueError(f"member {info.filename} is not stored uncompressed")
    with zf.open(info) as member:
        version = np.lib.format.read_magic(member)
        if version != (1, 0):
            raise ValueError(f"member {info.filename} has .npy version {version}")
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(member)
        if fortran_order or dtype.hasobject:
            raise ValueError(f"member {info.filename} is not a C-ordered plain array")
        size = math.prod(shape) * dtype.itemsize
        left = info.file_size - member.tell()
        if size != left:
            problem = "truncated" if size > left else "followed by trailing bytes"
            raise ValueError(f"member {info.filename} is {problem}: "
                             f"its header asks for {size} bytes, {left} follow")
        array = np.empty(shape, dtype)
        flat = array.reshape(-1).view(np.uint8)
        for start in range(0, size, _CHUNK):
            flat[start:start + _CHUNK] = np.frombuffer(member.read(_CHUNK), np.uint8)
    return array

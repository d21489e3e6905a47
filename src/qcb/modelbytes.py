"""One packed encoding for fitted models: the bytes a model's pickle holds.

A model pickles as ``(load, (blob,))``, where ``blob`` is ``dumps(model)``.
The writer's output, ``stream(model)``, is the values of the model's fields
in the fixed order its class declares, with the models and state objects it
holds written inline.  It holds no attribute name, class path or dtype
object, so its bytes are a function of the fitted values alone, and a
loaded model packs to the same bytes.  The stream is also the model's
``fitted_state``: a benchmark cell's checksum is the SHA-256 of the
uncompressed stream, so neither the compressor nor its build can change it.

The blob is the stream as raw LZMA2 (no container header), then the 4-byte
little-endian CRC-32 of the uncompressed stream.  ``_FILTERS`` is the one
filter: preset 6 with a 64 KiB dictionary, whose literal and match coders
key on the position within 8 bytes (``lp=3``, ``pb=3``) and not on the
previous byte (``lc=0``), since most of a stream is float64 arrays.  Raw
LZMA2 carries no check of its own, so the CRC tells a damaged blob from a
model; ``load`` raises ``ValueError`` for any blob it cannot read.

Each value is a tag byte and a body:

* ``None``, ``True`` and ``False`` are their tag alone.  An int is a zigzag
  varint, a float its 8 IEEE-754 bytes, a str a varint length and its UTF-8
  bytes.
* A tuple or list is a varint count and its items.  A dict (str keys) is a
  count and each key and its value, in the dict's order.
* An enum member is the index of its enum in ``_ENUMS`` and its own index.
  An object is the index of its class in ``_CLASSES`` and the tuple of its
  fields.
* An array is the code of its dtype, the code of the dtype it is stored in,
  its shape and the stored bytes.  An integer array is stored in the
  smallest integer dtype that holds its range, a bool array as packed bits,
  and a text array whose characters are all ASCII as one byte per
  character.  Loading casts each back, so every loaded array is a fresh,
  aligned, C-contiguous and writeable array of the dtype it had.  An array
  equal to one written before (same dtype, shape and bytes) is the index of
  that one, and loads as the same object.  A NumPy scalar is a 0-d array.

Any other value raises ``TypeError``.  A model class takes ``Packed``: its
``_packed_fields`` are written, its ``_derived_fields`` (caches for predict,
and state that is a fixed function of the rest) are not, and ``_restore``
rebuilds on load those that are not left to their first use.  A dataclass
is written as its fields; a class may define ``_pack`` and ``_unpack``
instead.
"""
from __future__ import annotations

import dataclasses
import importlib
import math
import lzma
import struct
import zlib
from functools import lru_cache

import numpy as np

# the one LZMA2 filter every blob is coded with (see the module docstring)
_FILTERS = ({"id": lzma.FILTER_LZMA2, "preset": 6, "dict_size": 1 << 16, "lc": 0, "lp": 3, "pb": 3},)

# every class and enum the format holds, coded by its index here
_CLASSES = (
    "qcb.classical.linear:LogisticRegressionClassifier",
    "qcb.classical.trees:DecisionTreeClassifier",
    "qcb.classical.trees:RandomForestClassifier",
    "qcb.classical.trees:_Nodes",
    "qcb.classical.svm:SvmClassifier",
    "qcb.classical.scaling:ScalerState",
    "qcb.classical.pca:PcaTransform",
    "qcb.circuits:CircuitConfig",
    "qcb.circuits:CorrelationGraph",
    "qcb.circuits:CostHamiltonian",
    "qcb.optimize:OptResult",
    "qcb.qmodels:_ScaleChain",
    "qcb.qmodels:VqcClassifier",
    "qcb.qmodels:QaoaClassifier",
    "qcb.qmodels:QKernelClassifier",
    "qcb.qmodels:HybridQcPipeline",
    "qcb.qmodels:HybridCqPipeline",
    "qcb.evalharness.registry:StandardizedModel",
    "qcb.evalharness.registry:MajorityClassBaseline",
)
_ENUMS = ("qcb.classical.scaling:ScalerKind", "qcb.circuits:CircuitFamily")

# array dtypes by code; a text dtype's code is followed by its character count
_DTYPES = ("|b1", "|u1", "<u2", "<u4", "<u8", "|i1", "<i2", "<i4", "<i8", "<f8", "<U", "|S")
_DTYPE_CODES = {name: code for code, name in enumerate(_DTYPES)}

_NONE, _TRUE, _FALSE, _INT, _FLOAT, _STR, _TUPLE, _LIST, _DICT, _ENUM, _OBJECT, _ARRAY, _SCALAR, _REF = (
    range(14)
)


@lru_cache(maxsize=None)
def _table(paths: tuple[str, ...]) -> tuple[tuple, dict]:
    """The classes ``paths`` name, and each one's code."""
    found = []
    for path in paths:
        module, name = path.split(":")
        found.append(getattr(importlib.import_module(module), name))
    return tuple(found), {cls: code for code, cls in enumerate(found)}


def _stored(array: np.ndarray) -> np.ndarray:
    """``array`` in the dtype the blob stores it in."""
    kind = array.dtype.kind
    if kind in "iu":
        low, high = (int(array.min()), int(array.max())) if array.size else (0, 0)
        narrow = np.promote_types(np.min_scalar_type(low), np.min_scalar_type(high))
        return array.astype(narrow) if narrow.itemsize < array.dtype.itemsize else array
    if kind == "U":
        try:
            return array.astype(f"S{array.dtype.itemsize // 4}")
        except UnicodeEncodeError:
            return array
    return array


class _Writer:
    def __init__(self):
        self.out = bytearray()
        self.arrays: dict[tuple, int] = {}  # (tag, dtype, shape, bytes) -> index among those written

    def varint(self, n: int) -> None:
        while n >= 0x80:
            self.out.append(n & 0x7F | 0x80)
            n >>= 7
        self.out.append(n)

    def value(self, value) -> None:
        kind = type(value)
        if value is None:
            self.out.append(_NONE)
        elif kind is bool:
            self.out.append(_TRUE if value else _FALSE)
        elif kind is int:
            self.out.append(_INT)
            self.varint(value * 2 if value >= 0 else -value * 2 - 1)
        elif kind is float:
            self.out.append(_FLOAT)
            self.out += struct.pack("<d", value)
        elif kind is str:
            encoded = value.encode()
            self.out.append(_STR)
            self.varint(len(encoded))
            self.out += encoded
        elif kind is tuple or kind is list:
            self.out.append(_TUPLE if kind is tuple else _LIST)
            self.varint(len(value))
            for item in value:
                self.value(item)
        elif kind is dict:
            self.out.append(_DICT)
            self.varint(len(value))
            for key, item in value.items():
                if type(key) is not str:
                    raise TypeError(f"the packed format holds str dict keys, not {type(key).__name__}")
                self.value(key)
                self.value(item)
        elif kind is np.ndarray:
            self.array(_ARRAY, value)
        elif isinstance(value, np.generic):
            self.array(_SCALAR, np.asarray(value))
        elif kind in _table(_ENUMS)[1]:
            self.out.append(_ENUM)
            self.varint(_table(_ENUMS)[1][kind])
            self.varint(list(kind).index(value))
        elif kind in _table(_CLASSES)[1]:
            self.out.append(_OBJECT)
            self.varint(_table(_CLASSES)[1][kind])
            if hasattr(kind, "_pack"):
                self.value(value._pack())
            else:
                self.value(tuple(getattr(value, field.name) for field in dataclasses.fields(value)))
        else:
            raise TypeError(f"the packed format holds no {kind.__module__}.{kind.__qualname__}")

    def array(self, tag: int, array: np.ndarray) -> None:
        key = (tag, array.dtype.str, array.shape, array.tobytes())
        if key in self.arrays:
            self.out.append(_REF)
            self.varint(self.arrays[key])
            return
        self.arrays[key] = len(self.arrays)
        stored = _stored(array)
        self.out.append(tag)
        self.dtype(array.dtype)
        self.dtype(stored.dtype)
        self.varint(array.ndim)
        for n in array.shape:
            self.varint(n)
        self.out += np.packbits(stored).tobytes() if stored.dtype == bool else stored.tobytes()

    def dtype(self, dtype: np.dtype) -> None:
        text = dtype.kind in "US"
        code = _DTYPE_CODES.get(dtype.str[:2] if text else dtype.str)
        if code is None:
            raise TypeError(f"the packed format holds no {dtype.str} array")
        self.varint(code)
        if text:
            self.varint(dtype.itemsize // (4 if dtype.kind == "U" else 1))


class _Reader:
    def __init__(self, data: bytes):
        self.data = memoryview(data)
        self.at = 0
        self.arrays: list = []  # each array or NumPy scalar read, in order

    def take(self, size: int) -> memoryview:
        chunk = self.data[self.at : self.at + size]
        if len(chunk) != size:
            raise ValueError("the packed model is truncated")
        self.at += size
        return chunk

    def varint(self) -> int:
        n = shift = 0
        while True:
            byte = self.data[self.at]
            self.at += 1
            n |= (byte & 0x7F) << shift
            if byte < 0x80:
                return n
            shift += 7

    def value(self):
        tag = self.data[self.at]
        self.at += 1
        if tag in (_NONE, _TRUE, _FALSE):
            return (None, True, False)[tag - _NONE]
        if tag == _INT:
            n = self.varint()
            return n >> 1 if n % 2 == 0 else -(n >> 1) - 1
        if tag == _FLOAT:
            return struct.unpack("<d", self.take(8))[0]
        if tag == _STR:
            return bytes(self.take(self.varint())).decode()
        if tag in (_TUPLE, _LIST):
            items = [self.value() for _ in range(self.varint())]
            return tuple(items) if tag == _TUPLE else items
        if tag == _DICT:
            return {self.value(): self.value() for _ in range(self.varint())}
        if tag == _ENUM:
            return list(_table(_ENUMS)[0][self.varint()])[self.varint()]
        if tag == _OBJECT:
            cls = _table(_CLASSES)[0][self.varint()]
            values = self.value()
            if hasattr(cls, "_unpack"):
                return cls._unpack(values)
            built = object.__new__(cls)
            built.__dict__.update(zip((field.name for field in dataclasses.fields(cls)), values))
            return built
        if tag in (_ARRAY, _SCALAR):
            array = self.array()
            self.arrays.append(array[()] if tag == _SCALAR else array)
            return self.arrays[-1]
        if tag == _REF:
            return self.arrays[self.varint()]
        raise ValueError(f"unknown tag {tag} in the packed model")

    def array(self) -> np.ndarray:
        dtype, stored = self.dtype(), self.dtype()
        shape = tuple(self.varint() for _ in range(self.varint()))
        size = math.prod(shape)
        if stored == bool:
            bits = np.frombuffer(self.take((size + 7) // 8), np.uint8)
            return np.unpackbits(bits, count=size).view(bool).reshape(shape)
        return np.frombuffer(self.take(size * stored.itemsize), stored).astype(dtype).reshape(shape)

    def dtype(self) -> np.dtype:
        name = _DTYPES[self.varint()]
        return np.dtype(name + str(self.varint()) if name[1] in "US" else name)


def stream(model) -> bytes:
    """The writer's uncompressed output for ``model``: what ``dumps`` compresses."""
    writer = _Writer()
    writer.value(model)
    return bytes(writer.out)


def dumps(model) -> bytes:
    """The packed bytes of ``model``: its stream in raw LZMA2, then the stream's CRC-32."""
    data = stream(model)
    return lzma.compress(data, format=lzma.FORMAT_RAW, filters=_FILTERS) + struct.pack("<I", zlib.crc32(data))


def load(blob: bytes):
    """The model that ``dumps`` packed into ``blob``; ``ValueError`` if it cannot be read."""
    decoder = lzma.LZMADecompressor(lzma.FORMAT_RAW, filters=_FILTERS)
    try:
        data = decoder.decompress(blob[:-4])
    except lzma.LZMAError as error:
        raise ValueError(f"the packed model does not decode: {error}") from None
    if not decoder.eof or decoder.unused_data:
        raise ValueError("the packed model's LZMA2 data does not end where its CRC-32 begins")
    if struct.pack("<I", zlib.crc32(data)) != blob[-4:]:
        raise ValueError("the packed model fails its CRC-32 check")
    reader = _Reader(data)
    try:
        model = reader.value()
    except IndexError:
        raise ValueError("the packed model's stream ends inside a value or names no known class") from None
    if reader.at != len(reader.data):
        raise ValueError("trailing bytes after the packed model")
    return model


class Packed:
    """A model that pickles as its packed bytes (see the module docstring)."""

    _packed_fields: tuple[str, ...] = ()  # written, in this order
    _derived_fields: tuple[str, ...] = ()  # never written

    def __reduce__(self):
        return load, (dumps(self),)

    def fitted_state(self) -> bytes:
        """The model's uncompressed packed stream, which its checksum hashes."""
        return stream(self)

    def _pack(self) -> tuple:
        unknown = vars(self).keys() - {*self._packed_fields, *self._derived_fields}
        if unknown:
            raise TypeError(f"the packed format holds no {type(self).__name__}.{min(unknown)}")
        return tuple(getattr(self, name) for name in self._packed_fields)

    @classmethod
    def _unpack(cls, values: tuple):
        model = cls.__new__(cls)
        model.__dict__.update(zip(cls._packed_fields, values))
        model._restore()
        return model

    def _restore(self) -> None:
        """Rebuild the derived fields that loading sets (none by default)."""

"""Content-addressed artifact cache for expensive pipeline stages.

Bug-study pipelines are rerun constantly with varied parameters (Ozkan et
al.; Catolino et al.) — but most reruns repeat most of the work: the same
corpus seed, the same vectorizer, the same per-dimension classifier.  The
cache keys every artifact on the *complete* configuration that produced it
(corpus seed + vectorizer/model hyperparameters), so

* any hyperparameter or seed change produces a different key (a stale
  artifact can never be returned for a new configuration), and
* two runs with identical configurations share work, with no false sharing
  between namespaces (an SVM artifact can never satisfy a Tree lookup —
  the namespace is part of the key material).

Artifacts live under ``benchmarks/artifacts/cache/<namespace>/`` as a
pickle payload plus a JSON metadata sidecar recording the canonicalized
parameters and a sha256 digest of the payload bytes, so a cache directory
is auditable with plain ``cat`` and ``sha256sum``.

Corruption is never silent: a payload whose bytes no longer match the
sidecar digest (bit rot, a torn write, a partial copy) — or a payload
whose sidecar is missing entirely — is *quarantined* into
``<root>/.quarantine/`` with a reason file, counted in :meth:`stats`, and
reported as a miss so the caller recomputes over a clean slot.  A
bit-flipped payload that still unpickles can therefore never flow back
into a run.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import IO, Any, Callable, Mapping

from repro.errors import ReproError

#: Default cache location, relative to the repository root.
DEFAULT_CACHE_ROOT = Path("benchmarks") / "artifacts" / "cache"

#: Directory (under the cache root) holding digest-mismatched entries.
QUARANTINE_DIRNAME = ".quarantine"

#: Bump when the payload format changes; part of every key.
_FORMAT_VERSION = 1


def atomic_write(path: Path, data: str | bytes | Callable[[IO[str]], None]) -> None:
    """Durably publish ``path``: write ``<name>.tmp``, fsync it, rename.

    ``data`` is the whole content, or a callable that streams text into the
    open handle.  Readers see the old file or the new one, never a prefix;
    if writing fails the tmp file is removed and ``path`` is untouched.
    """
    tmp = path.with_name(path.name + ".tmp")
    mode, encoding = ("wb", None) if isinstance(data, bytes) else ("w", "utf-8")
    try:
        with tmp.open(mode, encoding=encoding) as handle:
            if callable(data):
                data(handle)
            else:
                handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class CacheError(ReproError):
    """A cache key could not be derived from the given parameters."""


def canonicalize(value: Any) -> Any:
    """Reduce ``value`` to a deterministic JSON-encodable form.

    Mappings are key-sorted, sequences become lists, enums become
    ``"ClassName.MEMBER"``, and numpy scalars collapse to Python numbers.
    Floats keep full ``repr`` precision through ``json.dumps``.  Anything
    else (arrays, callables, open handles) is rejected: silently hashing
    an unstable repr would create false cache sharing.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # Normalize -0.0 so it cannot split keys with 0.0.
        return value + 0.0
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, Mapping):
        items = {}
        for key in value:
            if not isinstance(key, (str, int, bool, enum.Enum)):
                raise CacheError(f"unhashable cache-key field name: {key!r}")
            items[str(canonicalize(key))] = canonicalize(value[key])
        return dict(sorted(items.items()))
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [canonicalize(item) for item in value]
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=lambda item: json.dumps(item, sort_keys=True))
        return items
    # numpy scalars expose .item(); accept them without importing numpy here.
    item = getattr(value, "item", None)
    if callable(item) and getattr(value, "shape", None) == ():
        return canonicalize(value.item())
    raise CacheError(
        f"cannot build a cache key from {type(value).__name__!r} "
        f"(value {value!r}); reduce it to plain JSON types first"
    )


def cache_key(namespace: str, params: Mapping[str, Any]) -> str:
    """SHA-256 hex digest identifying ``(namespace, params)``.

    The namespace is part of the hashed material, so equal parameter sets
    in different namespaces (e.g. ``svm`` vs ``tree``) never collide.
    """
    if not namespace or "/" in namespace:
        raise CacheError(f"invalid cache namespace {namespace!r}")
    payload = json.dumps(
        {
            "format": _FORMAT_VERSION,
            "namespace": namespace,
            "params": canonicalize(dict(params)),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ArtifactCache:
    """Filesystem-backed artifact store keyed by :func:`cache_key`."""

    def __init__(self, root: str | Path = DEFAULT_CACHE_ROOT) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    # -- paths -----------------------------------------------------------------
    def path_for(self, namespace: str, params: Mapping[str, Any]) -> Path:
        key = cache_key(namespace, params)
        return self.root / namespace / f"{key}.pkl"

    def _meta_path(self, payload_path: Path) -> Path:
        return payload_path.with_suffix(".json")

    @property
    def quarantine_root(self) -> Path:
        return self.root / QUARANTINE_DIRNAME

    # -- integrity -------------------------------------------------------------
    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt payload (and sidecar) aside instead of deleting it.

        The entry stops satisfying lookups immediately, but the evidence
        survives for a post-mortem: the payload, its sidecar, and a
        ``.reason`` file land under ``<root>/.quarantine/<namespace>/``.
        """
        target_dir = self.quarantine_root / path.parent.name
        target_dir.mkdir(parents=True, exist_ok=True)
        for artifact in (path, self._meta_path(path)):
            if artifact.exists():
                os.replace(artifact, target_dir / artifact.name)
        (target_dir / f"{path.stem}.reason").write_text(reason + "\n")
        self.quarantined += 1

    def digest_of(self, namespace: str, params: Mapping[str, Any]) -> str | None:
        """The stored payload digest from the sidecar, or ``None``."""
        meta_path = self._meta_path(self.path_for(namespace, params))
        try:
            meta = json.loads(meta_path.read_text())
        except (OSError, ValueError):
            return None
        digest = meta.get("sha256")
        return str(digest) if digest is not None else None

    # -- access ----------------------------------------------------------------
    def lookup(self, namespace: str, params: Mapping[str, Any]) -> tuple[Any, bool]:
        """``(artifact, found)`` — digest-verified, quarantining on corruption.

        Unlike :meth:`get`, the ``found`` flag distinguishes a cached
        ``None`` from a miss.
        """
        path = self.path_for(namespace, params)
        if not path.exists():
            self.misses += 1
            return None, False
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return None, False
        try:
            meta = json.loads(self._meta_path(path).read_text())
        except (OSError, ValueError) as exc:
            self._quarantine(path, f"missing or unreadable sidecar: {exc}")
            self.misses += 1
            return None, False
        expected = meta.get("sha256")
        if expected is not None:
            actual = hashlib.sha256(data).hexdigest()
            if actual != expected:
                self._quarantine(
                    path, f"payload digest mismatch: sidecar {expected}, "
                    f"payload {actual}"
                )
                self.misses += 1
                return None, False
        try:
            value = pickle.loads(data)
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ValueError, TypeError) as exc:
            self._quarantine(path, f"unpicklable payload: {exc}")
            self.misses += 1
            return None, False
        self.hits += 1
        return value, True

    def get(self, namespace: str, params: Mapping[str, Any]) -> Any | None:
        """The cached artifact, or ``None`` on miss (or quarantined entry).

        ``None`` is ambiguous for caches that store ``None`` artifacts —
        use :meth:`lookup` when that matters.
        """
        value, found = self.lookup(namespace, params)
        return value if found else None

    def put(
        self,
        namespace: str,
        params: Mapping[str, Any],
        value: Any,
    ) -> Path:
        """Store ``value`` with a digest-bearing sidecar; returns the path.

        Both files publish atomically (tmp sibling + ``os.replace`` after
        fsync), sidecar first: a crash between the two leaves either a
        stale pair (digest mismatch -> quarantined on next read) or a
        sidecar without payload (a plain miss) — never a silently-wrong
        artifact.
        """
        path = self.path_for(namespace, params)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        meta = {
            "namespace": namespace,
            "key": path.stem,
            "format": _FORMAT_VERSION,
            "params": canonicalize(dict(params)),
            "payload": path.name,
            "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
        }
        # No ``indent``: it makes json fall back to its pure-Python encoder,
        # whose closures leave a reference cycle behind on every call.
        atomic_write(self._meta_path(path), json.dumps(meta, sort_keys=True))
        atomic_write(path, data)
        return path

    def get_or_compute(
        self,
        namespace: str,
        params: Mapping[str, Any],
        compute: Callable[[], Any],
    ) -> tuple[Any, bool]:
        """``(artifact, hit)`` — computing and storing on miss."""
        cached, found = self.lookup(namespace, params)
        if found:
            return cached, True
        value = compute()
        self.put(namespace, params, value)
        return value, False

    # -- maintenance -----------------------------------------------------------
    def entries(self) -> list[Path]:
        """Payload paths currently stored.

        Quarantined payloads are evidence, not inventory — excluded.
        """
        if not self.root.exists():
            return []
        return sorted(
            path for path in self.root.rglob("*.pkl")
            if QUARANTINE_DIRNAME not in path.parts
        )

    def stats(self) -> dict[str, int]:
        """Hit/miss/quarantine counters and the number of stored entries."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "quarantined": self.quarantined,
            "stored": len(self.entries()),
        }

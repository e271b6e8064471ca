"""Satellite: the import surface is frozen — a vanished name fails here.

The protocol types are the documented public API. This test pins the
names each package promises: removing (or renaming) one is a breaking
change that must be made deliberately, by editing this file in the same
commit.
"""

from __future__ import annotations

import importlib

import pytest

#: package → names that must exist in its ``__all__`` and resolve
PUBLIC_SURFACE: dict[str, list[str]] = {
    "repro": [
        "BDIOntology", "Release", "new_release",
        "MDM",
        "OMQ", "QueryEngine", "RewriteCache", "parse_omq", "rewrite",
        "EpochLock", "GovernedService",
        "QueryRequest", "QueryResponse",
        "ReleaseRequest", "ReleaseResponse",
        "DescribeResponse", "ErrorInfo",
        "ProtocolEndpoint", "GovernedClient", "HttpGateway",
        "ChangeRecord", "Journal", "Snapshot", "Replica",
        "__version__",
    ],
    "repro.storage": [
        "ChangeRecord",
        "Journal", "apply_record", "execute_command", "execute_release",
        "read_records", "replay_into",
        "Snapshot", "restore_state", "take_snapshot",
        "Replica", "FileTailer", "HttpTailer", "TailBatch",
    ],
    "repro.api": [
        "PROTOCOL_VERSION",
        "QueryRequest", "QueryResponse",
        "ReleaseRequest", "ReleaseResponse",
        "DescribeResponse", "ErrorInfo",
        "error_code_of", "exception_for", "http_status_of",
        "ProtocolEndpoint",
        "GovernedClient", "InProcessTransport", "HttpTransport",
        "as_transport",
        "HttpGateway",
    ],
    "repro.service": [
        "EpochLock", "EpochLockStats",
        "GovernedService", "ServiceStats",
        "build_industrial_service", "analyst_panel",
        "next_version_release",
    ],
    "repro.query": [
        "QueryEngine", "OMQ", "parse_omq", "RewriteCache",
        "canonical_omq_key", "RewritingResult", "rewrite",
        "PhysicalPlan", "plan_ucq", "UCQ",
    ],
    "repro.mdm": ["MDM"],
    "repro.core": ["BDIOntology", "Release", "new_release"],
    "repro.relational": ["Relation", "RelationSchema"],
}

#: error classes the protocol's taxonomy (and its users) dispatch on
PUBLIC_ERRORS = [
    "ReproError",
    "ServiceError", "EpochDrainTimeout", "AnswerFailed",
    "ProtocolError", "MalformedRequestError", "UnsupportedApiVersion",
    "EpochSuperseded", "InvalidCursorError", "GatewayError",
    "ReadOnlyReplicaError",
    "StorageError", "JournalError", "JournalCorruptedError",
    "SnapshotError",
    "QueryError", "MalformedQueryError", "UnanswerableQueryError",
    "OntologyError", "ReleaseError",
]


@pytest.mark.parametrize("module_name", sorted(PUBLIC_SURFACE))
def test_public_names_exist_and_are_exported(module_name):
    module = importlib.import_module(module_name)
    exported = set(getattr(module, "__all__", ()))
    for name in PUBLIC_SURFACE[module_name]:
        assert hasattr(module, name), \
            f"{module_name}.{name} disappeared from the public API"
        assert name in exported, \
            f"{module_name}.{name} is no longer in __all__"


@pytest.mark.parametrize("module_name", sorted(PUBLIC_SURFACE))
def test_all_entries_resolve(module_name):
    """No dead names: everything a package advertises must exist."""
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", ()):
        assert getattr(module, name, None) is not None, \
            f"{module_name}.__all__ advertises missing name {name!r}"


def test_error_taxonomy_surface():
    from repro import errors

    for name in PUBLIC_ERRORS:
        cls = getattr(errors, name, None)
        assert cls is not None, f"repro.errors.{name} disappeared"
        assert issubclass(cls, errors.ReproError) \
            or cls is errors.ReproError


def test_top_level_reexports_are_the_same_objects():
    """``repro.GovernedClient`` is ``repro.api.GovernedClient`` &c."""
    import repro
    import repro.api

    for name in ("GovernedClient", "HttpGateway", "QueryRequest",
                 "QueryResponse", "ReleaseRequest", "ReleaseResponse",
                 "ProtocolEndpoint", "ErrorInfo"):
        assert getattr(repro, name) is getattr(repro.api, name)

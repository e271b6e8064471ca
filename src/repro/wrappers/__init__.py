"""Wrapper layer of the mediator/wrapper architecture."""

from repro.wrappers.base import (
    StaticWrapper, Wrapper, WrapperDeltas, qualify,
)
from repro.wrappers.json_flatten import flatten_document, flatten_documents
from repro.wrappers.mongo import MongoWrapper
from repro.wrappers.rest import RestWrapper

__all__ = [
    "StaticWrapper", "Wrapper", "WrapperDeltas", "qualify",
    "flatten_document", "flatten_documents",
    "MongoWrapper", "RestWrapper",
]

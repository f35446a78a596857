"""Serving layer: batch, multi-query search over a sequence database."""

from repro.service.service import (
    SERVICE_ENGINES,
    BatchReport,
    Query,
    QueryResult,
    SearchService,
    ServiceError,
    ShardedBatchReport,
    ShardedSearchService,
    normalize_queries,
)

__all__ = [
    "SERVICE_ENGINES",
    "BatchReport",
    "Query",
    "QueryResult",
    "SearchService",
    "ServiceError",
    "ShardedBatchReport",
    "ShardedSearchService",
    "normalize_queries",
]

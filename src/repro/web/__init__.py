"""The CrowdWeb platform: JSON API, server-rendered pages, HTTP server."""

from .api import CrowdWebAPI
from .cache import CacheEntry, ResponseCache, dataset_fingerprint
from .pages import Pages
from .server import RETRY_AFTER_S, CrowdWebApp, CrowdWebServer
from .tiles import DEFAULT_MAX_ZOOM, TileIndex

__all__ = [
    "CacheEntry",
    "CrowdWebAPI",
    "CrowdWebApp",
    "CrowdWebServer",
    "DEFAULT_MAX_ZOOM",
    "Pages",
    "RETRY_AFTER_S",
    "ResponseCache",
    "TileIndex",
    "dataset_fingerprint",
]

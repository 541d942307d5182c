"""Data layer: metric catalogs, campaign containers, and a mini table."""

from .campaign_cache import CampaignCache, campaign_set_key
from .catalogs import AMD_METRICS, INTEL_METRICS, metric_catalog
from .dataset import RunCampaign
from .table import ColumnTable

__all__ = [
    "AMD_METRICS",
    "INTEL_METRICS",
    "metric_catalog",
    "CampaignCache",
    "campaign_set_key",
    "RunCampaign",
    "ColumnTable",
]

"""The measurement apparatus: crawling the (simulated) fediverse.

This package reproduces the paper's data-collection methodology
(Section 3):

1. compile a list of Pleroma instances from public directories,
2. expand it with every domain those instances have ever federated with
   (the Peers API),
3. snapshot each Pleroma instance's metadata — including its MRF policy
   configuration — every four hours over the campaign, and
4. collect all public posts through the Timeline API.

Everything is observed through :mod:`repro.api`; the crawler has no access
to simulator internals, so whatever the analysis finds was genuinely
measurable.
"""

from repro.crawler.directory import InstanceDirectory
from repro.crawler.snapshots import CrawlFailure, InstanceSnapshot, TimelineCollection
from repro.crawler.crawler import InstanceCrawler, TimelineCrawler
from repro.crawler.builder import build_dataset
from repro.crawler.campaign import CampaignConfig, CrawlResult, MeasurementCampaign

__all__ = [
    "InstanceDirectory",
    "CrawlFailure",
    "InstanceSnapshot",
    "TimelineCollection",
    "InstanceCrawler",
    "TimelineCrawler",
    "build_dataset",
    "CampaignConfig",
    "CrawlResult",
    "MeasurementCampaign",
]

"""Application layer: web browsing and panoramic video telephony."""

from repro.apps.video import (
    VIDEO_PROFILES,
    FrameRecord,
    VideoProfile,
    VideoSessionResult,
    run_video_session,
)
from repro.apps.web import (
    WEB_PAGE_CATALOG,
    PltBreakdown,
    WebPage,
    image_page,
    measure_plt,
)

__all__ = [
    "FrameRecord",
    "PltBreakdown",
    "VIDEO_PROFILES",
    "VideoProfile",
    "VideoSessionResult",
    "WEB_PAGE_CATALOG",
    "WebPage",
    "image_page",
    "measure_plt",
    "run_video_session",
]

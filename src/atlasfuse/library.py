"""Atlas-library directory format.

Layout:
    template.nii.gz
    cropbox.json
    scheme.json
    priors/<id>/intensity.nii.gz
    priors/<id>/labels.nii.gz
    priors/<id>/warp_to_template.nii.gz   (optional cache, written only by save)

Priors are always loaded in sorted id order so downstream results do not
depend on directory listing order. A prior without a cached warp must lie on
the template's lattice, where it is registered from the identity.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import imgio
from .atomic import atomic_open, make_dirs
from .errors import DataError, DegenerateInput, GeometryMismatch, MissingFile
from .grid import CropBox, DeformationField, LabelScheme, LabelVolume, VolumeGrid


def template_path(atlas_dir):
    return os.path.join(atlas_dir, "template.nii.gz")


def read_data_file(path, parse):
    """parse(path opened as text); a missing file is MissingFile, and one that cannot
    be read (another OSError) or parsed (ValueError, KeyError, TypeError) is DataError."""
    try:
        with open(path, newline="") as f:
            return parse(f)
    except FileNotFoundError as e:
        raise MissingFile(path) from e
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise DataError(f"cannot read {path}: {e!r}") from e


def _read_intensity(path):
    """The image at path; a non-finite voxel is DegenerateInput, as a cached warp would carry it into fusion."""
    vol = imgio.read_volume(path)
    if not np.isfinite(vol.data).all():
        raise DegenerateInput(f"{path} has non-finite intensities")
    return vol


@dataclass
class AtlasPrior:
    id: str
    intensity: VolumeGrid
    labels: LabelVolume
    warp_to_template: DeformationField | None = None


@dataclass
class AtlasLibrary:
    template: VolumeGrid
    crop_box: CropBox
    scheme: LabelScheme
    priors: list = field(default_factory=list)

    def save(self, out_dir):
        make_dirs(out_dir)
        imgio.write_volume(self.template, template_path(out_dir))
        with atomic_open(os.path.join(out_dir, "cropbox.json")) as f:
            json.dump(self.crop_box.to_dict(), f, indent=2)
        self.scheme.to_json(os.path.join(out_dir, "scheme.json"))
        for p in self.priors:
            pdir = os.path.join(out_dir, "priors", p.id)
            make_dirs(pdir)
            imgio.write_volume(p.intensity, os.path.join(pdir, "intensity.nii.gz"))
            imgio.write_volume(p.labels, os.path.join(pdir, "labels.nii.gz"))
            if p.warp_to_template is not None:
                imgio.write_field(
                    p.warp_to_template, os.path.join(pdir, "warp_to_template.nii.gz")
                )

    @classmethod
    def load(cls, atlas_dir) -> "AtlasLibrary":
        template = _read_intensity(template_path(atlas_dir))
        box = read_data_file(os.path.join(atlas_dir, "cropbox.json"), lambda f: CropBox.from_dict(json.load(f)))
        scheme = read_data_file(os.path.join(atlas_dir, "scheme.json"), lambda f: LabelScheme._from_rows(json.load(f)))
        priors = []
        pdir = os.path.join(atlas_dir, "priors")
        if not os.path.isdir(pdir):
            raise MissingFile(pdir)
        for pid in sorted(os.listdir(pdir)):
            sub = os.path.join(pdir, pid)
            if not os.path.isdir(sub):
                continue
            intensity = _read_intensity(os.path.join(sub, "intensity.nii.gz"))
            labels = imgio.read_volume(
                os.path.join(sub, "labels.nii.gz"), as_labels=True, scheme=scheme
            )
            warp = None
            wpath = os.path.join(sub, "warp_to_template.nii.gz")
            if os.path.isfile(wpath):
                warp = imgio.read_field(wpath)
            elif not intensity.geometry.close_to(template.geometry):
                raise GeometryMismatch(f"prior {pid} has no cached warp and is off the template's lattice")
            priors.append(AtlasPrior(pid, intensity, labels, warp))
        if not priors:
            raise MissingFile(f"no priors found under {pdir}")
        return cls(template=template, crop_box=box, scheme=scheme, priors=priors)

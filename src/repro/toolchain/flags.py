"""Build configurations: the flag sets of Table II (STREAM) and Table III
(applications), reproduced verbatim so the harness can regenerate both
tables and tests can assert the documented configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.tables import Table


@dataclass(frozen=True)
class FlagSet:
    """One build configuration row."""

    build: str
    compiler: str
    flags: str
    extra: dict[str, str] = field(default_factory=dict, hash=False)


#: Table II — STREAM build configurations.
STREAM_BUILDS: dict[str, FlagSet] = {
    "cte-arm-openmp": FlagSet(
        build="CTE-Arm OpenMP",
        compiler="Fujitsu/1.2.26b",
        flags=(
            "-Kfast,parallel -KA64FX -KSVE -KARMV8_3_A -Kopenmp "
            "-Kzfill=100 -Kprefetch_sequential=soft -Kprefetch_iteration=8 "
            "-Kprefetch_iteration_L2=16 -Knounroll -mcmodel=large"
        ),
    ),
    "cte-arm-hybrid": FlagSet(
        build="CTE-Arm MPI+OpenMP",
        compiler="Fujitsu/1.2.26b",
        flags=(
            "-Kfast,parallel -KA64FX -KSVE -KARMV8_3_A -Kopenmp "
            "-Kzfill=100 -Kprefetch_sequential=soft -Kprefetch_iteration=8 "
            "-Kprefetch_iteration_L2=16 -Knounroll"
        ),
    ),
    "mn4-openmp": FlagSet(
        build="MareNostrum 4 OpenMP",
        compiler="Intel/19.1.1.217",
        flags="-O3 -xHost -qopenmp-link=static -qopenmp",
    ),
    "mn4-hybrid": FlagSet(
        build="MareNostrum 4 MPI+OpenMP",
        compiler="Intel/19.1.1.217",
        flags="-O3 -xHost -qopenmp-link=static -qopenmp",
    ),
}

#: Table III — application build configurations (flags abridged to the
#: optimization-relevant subset; full strings kept where the paper's
#: conclusions depend on them).
APP_BUILDS: dict[tuple[str, str], FlagSet] = {
    ("alya", "cte-arm"): FlagSet(
        build="Alya @ CTE-Arm",
        compiler="GNU/8.3.1-sve",
        flags=(
            "-O3 -march=armv8.2-a+sve -msve-vector-bits=512 "
            "-ffree-line-length-512 -DNDIMEPAR -DVECTOR_SIZE=16 -DMETIS"
        ),
        extra={"mpi": "Fujitsu/1.1.18", "metis": "metis/4.0"},
    ),
    ("alya", "marenostrum4"): FlagSet(
        build="Alya @ MareNostrum 4",
        compiler="GNU/8.4.2",
        flags=(
            "-O3 -march=skylake-avx512 -ffree-line-length-none "
            "-fimplicit-none -DNDIMEPAR -DVECTOR_SIZE=16 -DMETIS"
        ),
        extra={"mpi": "OpenMPI/4.0.2", "metis": "metis/4.0"},
    ),
    ("nemo", "cte-arm"): FlagSet(
        build="NEMO @ CTE-Arm",
        compiler="GNU/8.3.1-sve",
        flags=(
            "-fdefault-real-8 -O3 -funroll-all-loops -fcray-pointer "
            "-ffree-line-length-none"
        ),
        extra={
            "mpi": "Fujitsu/1.2.26b",
            "deps": "HDF5/1.12.0 NetCDF-C/4.7.4 NetCDF-F/4.5.3",
            "cflags": "-O3",
        },
    ),
    ("nemo", "marenostrum4"): FlagSet(
        build="NEMO @ MareNostrum 4",
        compiler="Intel/2017.4",
        flags=(
            "-i4 -r8 -O3 -xCORE-AVX512 -mtune=skylake -fp-model strict "
            "-fno-alias -traceback"
        ),
        extra={
            "mpi": "Intel/2018.4",
            "deps": "HDF5/1.8.19 NetCDF-C/4.2 NetCDF-F/4.2",
            "cflags": "-O3 -g",
        },
    ),
    ("gromacs", "cte-arm"): FlagSet(
        build="Gromacs @ CTE-Arm",
        compiler="GNU/11.0.0",
        flags="-O3 -fopenmp -march=armv8.2-a+sve -msve-vector-bits=512",
        extra={"mpi": "Fujitsu/1.2.26b", "deps": "fftw3/3.3.9-sve Fujitsu SSL2/1.2.26b"},
    ),
    ("gromacs", "marenostrum4"): FlagSet(
        build="Gromacs @ MareNostrum 4",
        compiler="Intel/2018.4",
        flags="-O3 -qopenmp -xCORE-AVX512 -qopt-zmm-usage=high",
        extra={"mpi": "Intel/2018.4", "deps": "fftw/3.3.8 MKL/2018.4"},
    ),
    ("openifs", "cte-arm"): FlagSet(
        build="OpenIFS @ CTE-Arm",
        compiler="GNU/8.3.1-sve",
        flags=(
            "-O2 -fconvert=big-endian -fopenmp -ffree-line-length-none "
            "-fdefault-real-8 -fdefault-double-8"
        ),
        extra={
            "mpi": "Fujitsu/1.2.26b",
            "cflags": "-O0",
            "deps": (
                "HDF5/1.12.0 NetCDF-C/4.7.4 NetCDF-F/4.5.3 eccodes/2.18.0 "
                "BLAS/Internal LAPACK/Internal"
            ),
        },
    ),
    ("openifs", "marenostrum4"): FlagSet(
        build="OpenIFS @ MareNostrum 4",
        compiler="Intel/2018.4",
        flags=(
            "-m64 -O2 -fpe0 -fp-model precise -fp-speculation=safe "
            "-convert big_endian -r8"
        ),
        extra={
            "mpi": "Intel/2018.4",
            "cflags": "-O0",
            "deps": (
                "HDF5/1.8.19 NetCDF-C/4.4.1.1 NetCDF-F/4.4.1.1 eccodes/2.18.0 "
                "MKL/2018.4"
            ),
        },
    ),
    ("wrf", "cte-arm"): FlagSet(
        build="WRF @ CTE-Arm",
        compiler="GNU/8.3.1-sve",
        flags="-O2 -ftree-vectorize -funroll-loops",
        extra={
            "mpi": "Fujitsu/1.2.26b",
            "deps": "NETCDF/4.2 HDF5/1.8.19",
            "cflags_local": "-w -O3 -c",
            "byteswapio": "-fconvert=big-endian -frecord-marker=4",
        },
    ),
    ("wrf", "marenostrum4"): FlagSet(
        build="WRF @ MareNostrum 4",
        compiler="Intel/2017.4",
        flags="-O3 -ip",
        extra={
            "mpi": "Intel/2017.4",
            "deps": "NETCDF/4.4.1.1 HDF5/1.8.19",
            "cflags_local": "-w -O3 -ip",
            "byteswapio": "-convert big_endian",
        },
    ),
}


def table2() -> Table:
    """Regenerate Table II."""
    t = Table(
        "TABLE II — Build configurations for STREAM",
        ["Build", "Compiler", "Compiler Flags"],
    )
    for fs in STREAM_BUILDS.values():
        t.add_row(fs.build, fs.compiler, fs.flags)
    return t


def table3() -> Table:
    """Regenerate Table III (one row per application x cluster)."""
    t = Table(
        "TABLE III — Build configurations for all HPC applications",
        ["Application", "Cluster", "Compiler", "Flags", "MPI", "Dependencies"],
    )
    for (app, cluster), fs in APP_BUILDS.items():
        t.add_row(
            app.capitalize() if app != "wrf" else "WRF",
            cluster,
            fs.compiler,
            fs.flags,
            fs.extra.get("mpi", ""),
            fs.extra.get("deps", ""),
        )
    return t

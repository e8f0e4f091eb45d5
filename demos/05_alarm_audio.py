"""
Buzzer-style alarm audio
========================

The alarm sink renders square waves - the timbre of a passive buzzer - as
16-bit mono PCM and writes a standard WAV. Custom tunes are one note per
line, ``freq_hz:duration_ms``, with frequency 0 as a rest.
"""

import wave
from pathlib import Path

from lightwake import DEFAULT_ALARM_MELODY, melody_to_wav, parse_melody, synthesize_melody

out = Path("demo_out")
out.mkdir(exist_ok=True)

pcm = synthesize_melody(DEFAULT_ALARM_MELODY)
print(f"default melody {DEFAULT_ALARM_MELODY.name!r}: "
      f"{DEFAULT_ALARM_MELODY.notes} -> {len(pcm)} frames")

wav_path = out / "alarm.wav"
melody_to_wav(DEFAULT_ALARM_MELODY, wav_path)
with wave.open(str(wav_path), "rb") as fh:
    print(f"{wav_path}: {fh.getnchannels()} channel, {8 * fh.getsampwidth()}-bit, "
          f"{fh.getframerate()} Hz, {fh.getnframes() / fh.getframerate():.3f} s")

siren = parse_melody("""
# a more insistent wake-up call
988:150
0:50
988:150
0:50
1319:400
""", name="siren")
melody_to_wav(siren, out / "siren.wav")
print(f"custom melody written to {out / 'siren.wav'}")
